package engine

import (
	"flag"
	"os"
	"testing"

	"phasetune/internal/leaktest"
)

// artifacts names a directory TestSessionTraceEndToEnd copies its
// session trace into, for inspection; empty writes nothing. It changes
// no assertion:
//
//	go test -run TestSessionTraceEndToEnd ./internal/engine/ -args -artifacts "$PWD/trace-sample"
var artifacts = flag.String("artifacts", "", "directory to copy the sample session trace into (empty = none)")

// TestMain fails the suite if any test leaves a goroutine behind — the
// runtime counterpart of the goleak analyzer.
func TestMain(m *testing.M) {
	os.Exit(leaktest.Main(m))
}
