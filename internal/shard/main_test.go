package shard

import (
	"flag"
	"os"
	"testing"

	"phasetune/internal/leaktest"
)

// artifacts names a directory the fleet observability tests copy their
// stitched trace and merged event log into, for inspection; empty
// writes nothing. It changes no assertion:
//
//	go test -run 'TestFleetTraceStitched|TestFleetEventsCausal' ./internal/shard/ -args -artifacts "$PWD"
var artifacts = flag.String("artifacts", "", "directory to copy the fleet trace and event log into (empty = none)")

// TestMain fails the suite if any test leaves a goroutine behind — the
// runtime counterpart of the goleak analyzer.
func TestMain(m *testing.M) {
	os.Exit(leaktest.Main(m))
}
