package main

import (
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"

	"phasetune/internal/engine"
	"phasetune/internal/obsv"
)

// TestWriteSessionTracesStaysInDir: a recorded trace whose name is not
// a valid session id is skipped, so -trace-dir writes nothing outside
// its directory.
func TestWriteSessionTracesStaysInDir(t *testing.T) {
	tel := obsv.NewTelemetry(nil)
	eng := engine.NewWithOptions(engine.Options{Workers: 1, Telemetry: tel})
	for _, id := range []string{"../pwned", "s1", ".hidden"} {
		_, end := tel.Trace.StartRequest(id, "POST /v1/sessions/{id}/step")
		end()
	}
	root := t.TempDir()
	if err := writeSessionTraces(eng, filepath.Join(root, "traces")); err != nil {
		t.Fatal(err)
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files = append(files, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join("traces", "s1.trace.json")}; !reflect.DeepEqual(files, want) {
		t.Fatalf("wrote %v, want %v", files, want)
	}
}
