package main

import (
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
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

// TestStartPprofLoopbackOnly: an address without a host, ":0" or a bare
// port, binds pprof to 127.0.0.1 on its own listener, which serves
// /debug/pprof/cmdline, while the API handler run serves has no
// /debug/pprof/ route.
func TestStartPprofLoopbackOnly(t *testing.T) {
	for _, addr := range []string{":0", "0"} {
		ln, err := startPprof(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if ip := ln.Addr().(*net.TCPAddr).IP; !ip.Equal(net.IPv4(127, 0, 0, 1)) {
			t.Fatalf("startPprof(%q) bound %v, want 127.0.0.1", addr, ln.Addr())
		}
		resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof cmdline on %s: status %d", ln.Addr(), resp.StatusCode)
		}
	}

	eng := engine.New(1)
	srv := engine.NewServerWithOptions(eng, engine.ServerOptions{})
	wirePeers(config{}, eng, srv)
	wireReplicaFleet(eng, srv)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("API handler answered /debug/pprof/cmdline with %d, want 404", rec.Code)
	}
}
