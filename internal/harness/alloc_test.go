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

// lateProposalBounds bound the allocations and bytes of one
// GP-discontinuous proposal late in a long-tune-shaped session, 192
// history entries, constant-liar lies included, and 74 allowed actions,
// in strategy model 2, which sessions journaled in it still run, and
// model 3, the model of new sessions. Measured on linux/amd64 with
// Go 1.24:
//
//   - Model 2 allocates about 104 times and 112 KB, none of it per
//     predicted action. Before predictions shared one block solve,
//     every predicted action allocated about seven slices, about 1,340
//     allocations in all; before the fit's factors and the prediction
//     blocks were recycled it allocated about 950 KB, most of it two
//     192 × 192 and two 74 × 192 matrices; before integer inputs were
//     grouped by value and the noise estimate laid its groups out in
//     one slice, it allocated 412 times and 125 KB.
//   - Model 3 allocates about 76 times and 43 KB: its chain fit and
//     its storage are recycled, and nothing grows with the square of
//     the history. What is left is shared with model 2: the noise
//     estimate, the trend pre-fit that sizes alpha, and the grouping
//     into per-action means.
var lateProposalBounds = []struct {
	model  int
	allocs float64
	bytes  uint64
}{
	{model: 2, allocs: 600, bytes: 256 << 10},
	{model: 3, allocs: 150, bytes: 64 << 10},
}

// TestLateProposalAllocBound keeps a late GP proposal's allocations
// independent of the number of actions it predicts, and its bytes
// independent of the history's square, in strategy models 2 and 3.
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
	ctx := core.Context{
		N: sc.Platform.N(), Min: sc.MinNodes, GroupSizes: sc.Platform.GroupSizes(), LP: lpf,
	}
	for _, b := range lateProposalBounds {
		s := core.NewGPDiscontinuous(ctx, core.GPOptions{})
		if b.model == 2 {
			s = core.NewGPDiscontinuousModel2(ctx)
		}
		// 120 observations committed as step, step, batch of 4, batch
		// of 4, each batch proposal but the last followed by its exact
		// makespan as the constant-liar lie.
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
		t.Logf("model %d, per proposal at %d history entries and %d allowed actions: %.0f allocs, %d bytes",
			b.model, entries, len(s.Allowed()), allocs, bytes)
		if allocs > b.allocs {
			t.Errorf("model %d late proposal: %.0f allocs, bound %.0f", b.model, allocs, b.allocs)
		}
		if bytes > b.bytes {
			t.Errorf("model %d late proposal: %d bytes, bound %d", b.model, bytes, b.bytes)
		}
	}
}
