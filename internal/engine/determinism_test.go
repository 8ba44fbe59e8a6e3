package engine

import (
	"context"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(42, 1, 2)
	if a != DeriveSeed(42, 1, 2) {
		t.Fatal("DeriveSeed not stable")
	}
	if a < 0 {
		t.Fatalf("DeriveSeed negative: %d", a)
	}
	distinct := map[int64]bool{a: true}
	for _, s := range []int64{
		DeriveSeed(42, 2, 1), // salt order matters
		DeriveSeed(42, 1),
		DeriveSeed(42),
		DeriveSeed(43, 1, 2), // base matters
		DeriveSeed(42, 1, 3),
	} {
		if distinct[s] {
			t.Fatalf("seed collision at %d", s)
		}
		distinct[s] = true
	}
}

// testScenario returns the small scenario + options every determinism
// test runs on.
func testScenario(t *testing.T) (platform.Scenario, harness.SimOptions) {
	t.Helper()
	sc, ok := platform.ScenarioByKey("b")
	if !ok {
		t.Fatal("scenario b missing")
	}
	return sc, harness.SimOptions{Tiles: 4}
}

func newTestStrategy(t *testing.T, name string, sc platform.Scenario, opts harness.SimOptions) core.Strategy {
	t.Helper()
	lpf, err := harness.LPBound(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.NewStrategy(name, core.Context{
		N:          sc.Platform.N(),
		Min:        sc.MinNodes,
		GroupSizes: sc.Platform.GroupSizes(),
		LP:         lpf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEngineSessionMatchesRunOnlineBitForBit is the determinism
// satellite's acceptance test: an engine-hosted session, with the DES
// evaluations going through the shared cache and an 8-slot pool, must
// reproduce the sequential harness.RunOnline trajectory exactly — same
// actions, same durations to the last bit — for the same seed.
func TestEngineSessionMatchesRunOnlineBitForBit(t *testing.T) {
	sc, opts := testScenario(t)
	const iters = 12
	const seed = 42

	for _, name := range []string{"DC", "GP-discontinuous"} {
		seq, err := harness.RunOnline(sc, newTestStrategy(t, name, sc, opts), iters, opts, seed)
		if err != nil {
			t.Fatal(err)
		}

		e := New(8)
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: name, Seed: seed, Tiles: opts.Tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Result(s.id)
		if err != nil {
			t.Fatal(err)
		}

		if len(res.Actions) != len(seq.Actions) {
			t.Fatalf("%s: %d engine iterations vs %d sequential", name, len(res.Actions), len(seq.Actions))
		}
		for i := range seq.Actions {
			if res.Actions[i] != seq.Actions[i] {
				t.Fatalf("%s iter %d: engine action %d, sequential %d",
					name, i, res.Actions[i], seq.Actions[i])
			}
			if res.Durations[i] != seq.Durations[i] {
				t.Fatalf("%s iter %d: engine duration %v, sequential %v (not bit-for-bit)",
					name, i, res.Durations[i], seq.Durations[i])
			}
		}
		if res.Total != seq.Total {
			t.Fatalf("%s: engine total %v, sequential %v", name, res.Total, seq.Total)
		}
	}
}

// TestBatchStepWorkerCountIndependent: speculative batches commit in
// proposal order, so the trajectory is a pure function of the inputs —
// 1 worker and 8 workers must agree bit-for-bit.
func TestBatchStepWorkerCountIndependent(t *testing.T) {
	_, opts := testScenario(t)
	run := func(workers int) SessionResult {
		e := New(workers)
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: opts.Tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One sequential step to prime a real observation (the liar needs
		// something credible), then speculative batches.
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			if _, _, err := e.BatchStepIdem(context.Background(), s.id, 4, ""); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Result(s.id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	r1, r8 := run(1), run(8)
	if len(r1.Actions) != len(r8.Actions) {
		t.Fatalf("iteration counts differ: %d vs %d", len(r1.Actions), len(r8.Actions))
	}
	for i := range r1.Actions {
		if r1.Actions[i] != r8.Actions[i] || r1.Durations[i] != r8.Durations[i] {
			t.Fatalf("iter %d differs across worker counts: (%d, %v) vs (%d, %v)",
				i, r1.Actions[i], r1.Durations[i], r8.Actions[i], r8.Durations[i])
		}
	}
}

// TestSweepMatchesSequentialArgmin: the parallel sweep's best action
// must be identical to a plain sequential SimulateIteration loop, and
// the noisy replicates (per-action SplitMix streams) must not depend on
// the worker count.
func TestSweepMatchesSequentialArgmin(t *testing.T) {
	sc, opts := testScenario(t)

	// Sequential reference.
	bestA, bestMk := 0, 0.0
	for a := sc.MinNodes; a <= sc.Platform.N(); a++ {
		mk, err := harness.SimulateIteration(sc, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bestA == 0 || mk < bestMk {
			bestA, bestMk = a, mk
		}
	}

	so := SweepOptions{NoiseSD: 0.5, Reps: 3, Seed: 99}
	r1, err := New(1).SweepCtx(context.Background(), sc, opts, so)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := New(8).SweepCtx(context.Background(), sc, opts, so)
	if err != nil {
		t.Fatal(err)
	}

	if r8.BestAction != bestA || r8.BestMakespan != bestMk {
		t.Fatalf("engine best (%d, %v) != sequential best (%d, %v)",
			r8.BestAction, r8.BestMakespan, bestA, bestMk)
	}
	if len(r1.Points) != len(r8.Points) {
		t.Fatalf("point counts differ")
	}
	for i := range r1.Points {
		p1, p8 := r1.Points[i], r8.Points[i]
		if p1.Action != p8.Action || p1.Makespan != p8.Makespan {
			t.Fatalf("point %d differs: %+v vs %+v", i, p1, p8)
		}
		for r := range p1.Noisy {
			if p1.Noisy[r] != p8.Noisy[r] {
				t.Fatalf("action %d noisy rep %d differs across worker counts: %v vs %v",
					p1.Action, r, p1.Noisy[r], p8.Noisy[r])
			}
		}
	}
}
