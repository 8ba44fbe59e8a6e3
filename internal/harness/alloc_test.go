package harness

import (
	"testing"

	"phasetune/internal/platform"
	"phasetune/internal/trace"
)

// Allocation ceilings of one 48-tile scenario-(b) evaluation at seven
// factorization nodes. Before the iteration graph was built once per
// shape and runs kept their state in recycled slices, the same
// evaluation allocated 203k times plain and 288k times observed and
// converted for a trace. These bounds leave headroom over the measured
// counts, about 110 plain and 840 observed (most of those format the
// names of the platform's 344 execution units) on linux/amd64 with
// Go 1.24.
const (
	plainEvalAllocs    = 500
	observedEvalAllocs = 2000
)

// TestSimulateIterationAllocBound keeps a cache-missing evaluation
// allocation-light, plain and with a trace.Recorder attached.
func TestSimulateIterationAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sc, _ := platform.ScenarioByKey("b")
	run := func(opts SimOptions) {
		if _, err := SimulateIteration(sc, 7, opts); err != nil {
			t.Fatal(err)
		}
	}
	plain := testing.AllocsPerRun(5, func() { run(SimOptions{Tiles: 48}) })
	observed := testing.AllocsPerRun(5, func() {
		run(SimOptions{Tiles: 48, Observer: trace.NewRecorder()})
	})
	t.Logf("allocs per 48-tile evaluation: %.0f plain, %.0f observed", plain, observed)
	if plain > plainEvalAllocs {
		t.Errorf("plain evaluation: %.0f allocs, bound %d", plain, plainEvalAllocs)
	}
	if observed > observedEvalAllocs {
		t.Errorf("observed evaluation: %.0f allocs, bound %d", observed, observedEvalAllocs)
	}
}
