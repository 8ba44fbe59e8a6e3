package harness

import (
	"runtime"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
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

// lateProposalAllocs and lateProposalBytes bound one GP-discontinuous
// proposal late in a long-tune-shaped session: 192 history entries,
// constant-liar lies included, and 74 allowed actions. The proposal
// allocates about 400 times on linux/amd64 with Go 1.24, none of them
// per predicted action. Before predictions shared one block solve,
// every predicted action allocated about seven slices, about 1,340
// allocations in all. It allocates about 140 KB; before the fit's
// factors and the prediction blocks were recycled it allocated about
// 950 KB, most of it two 192 × 192 and two 74 × 192 matrices.
const (
	lateProposalAllocs = 600
	lateProposalBytes  = 256 << 10
)

// TestLateProposalAllocBound keeps a late GP proposal's allocations
// independent of the number of actions it predicts, and its bytes
// independent of the history's square.
func TestLateProposalAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sc, _ := platform.ScenarioByKey("n")
	opts := SimOptions{Tiles: 12}
	lpf, err := LPBound(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	sims := map[int]float64{}
	for a := sc.MinNodes; a <= sc.Platform.N(); a++ {
		if sims[a], err = SimulateIteration(sc, a, opts); err != nil {
			t.Fatal(err)
		}
	}
	s := core.NewGPDiscontinuous(core.Context{
		N: sc.Platform.N(), Min: sc.MinNodes, GroupSizes: sc.Platform.GroupSizes(), LP: lpf,
	}, core.GPOptions{})
	// 120 observations committed as step, step, batch of 4, batch of 4,
	// each batch proposal but the last followed by its exact makespan
	// as the constant-liar lie.
	noise := stats.NewRNG(1)
	entries := 0
	for n := 0; n < 120; {
		for _, k := range []int{1, 1, 4, 4} {
			if n == 120 {
				break
			}
			actions := make([]int, k)
			for i := range actions {
				actions[i] = s.Next()
				if i < k-1 {
					s.Observe(actions[i], sims[actions[i]])
					entries++
				}
			}
			for _, a := range actions {
				s.Observe(a, sims[a]+noise.Normal(0, NoiseSD))
				entries++
			}
			n += k
		}
	}
	allocs := testing.AllocsPerRun(5, func() { s.Next() })
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s.Next()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("per proposal at %d history entries and %d allowed actions: %.0f allocs, %d bytes",
		entries, len(s.Allowed()), allocs, bytes)
	if allocs > lateProposalAllocs {
		t.Errorf("late proposal: %.0f allocs, bound %d", allocs, lateProposalAllocs)
	}
	if bytes > lateProposalBytes {
		t.Errorf("late proposal: %d bytes, bound %d", bytes, lateProposalBytes)
	}
}
