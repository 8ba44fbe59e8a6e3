package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

// TestConcurrentSessionsShareCache runs several sessions over the same
// scenario at once and checks the exactly-one-simulation-per-key
// promise end to end: cache misses equal the number of distinct
// (epoch, action) points any session touched, hits cover every other
// step, and the hit ratio follows exactly.
func TestConcurrentSessionsShareCache(t *testing.T) {
	e := New(4)
	const sessions = 6
	const steps = 8

	ids := make([]string, sessions)
	for i := range ids {
		// Same scenario and strategy, different seeds: trajectories may
		// diverge, overlap is deduplicated by the shared cache.
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: "UCB", Seed: int64(i + 1), Tiles: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.id
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
					t.Errorf("session %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	distinct := map[int]bool{}
	total := 0
	for _, id := range ids {
		res, err := e.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != steps {
			t.Fatalf("session %s ran %d iterations, want %d", id, res.Iterations, steps)
		}
		for _, a := range res.Actions {
			distinct[a] = true
		}
		total += res.Iterations
	}

	st := e.Cache().Stats()
	if int(st.Misses) != len(distinct) {
		t.Fatalf("misses = %d, want one simulation per distinct action = %d",
			st.Misses, len(distinct))
	}
	if int(st.Hits) != total-len(distinct) {
		t.Fatalf("hits = %d, want %d (every non-first request served from cache)",
			st.Hits, total-len(distinct))
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiescence", st.InFlight)
	}
}

// TestAdvanceEpochInvalidates: after an epoch bump the same action is
// recomputed (new key) and the stale epoch's entries are evicted.
func TestAdvanceEpochInvalidates(t *testing.T) {
	e := New(2)
	s, err := e.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "Right-Left", Seed: 3, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Right-Left starts at N and walks left: first two steps hit N, N-1.
	for i := 0; i < 2; i++ {
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	st0 := e.Cache().Stats()

	epoch, _, err := e.AdvanceEpochIdem(context.Background(), s.id, "")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	if st := e.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("%d stale entries survived the epoch bump", st.Entries)
	}

	// The next step re-simulates even if the strategy repeats an action.
	if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	if st := e.Cache().Stats(); st.Misses != st0.Misses+1 {
		t.Fatalf("post-epoch step was served from a stale cache (misses %d -> %d)",
			st0.Misses, st.Misses)
	}
}

func TestMetrics(t *testing.T) {
	e := New(3)
	s, err := e.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "DC", Seed: 5, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.Workers != 3 {
		t.Fatalf("workers = %d", m.Workers)
	}
	if m.SessionsTotal != 1 || m.IterationsTotal != 5 {
		t.Fatalf("sessions=%d iterations=%d", m.SessionsTotal, m.IterationsTotal)
	}
	if m.InFlightEvals != 0 {
		t.Fatalf("in-flight = %d at rest", m.InFlightEvals)
	}
	sm := m.Sessions[0]
	if sm.ID != s.id || sm.Strategy != "DC" {
		t.Fatalf("session metrics %+v", sm)
	}
	if sm.Regret < 0 {
		t.Fatalf("regret %v < 0 — regret against the best evaluated action cannot be negative", sm.Regret)
	}
	if sm.BestAction < 1 || sm.BestSim <= 0 {
		t.Fatalf("best action/sim not populated: %+v", sm)
	}
	if sm.Actions != nil || sm.Durations != nil {
		t.Fatal("metrics view must not carry full trajectories")
	}
}

func TestCreateSessionErrors(t *testing.T) {
	e := New(1)
	if _, err := e.CreateSession(SessionConfig{ScenarioKey: "zz"}); err == nil {
		t.Fatal("unknown scenario must fail")
	}
	if _, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "nope"}); err == nil {
		t.Fatal("unknown strategy must fail")
	}
	if _, _, err := e.StepIdem(context.Background(), "missing", ""); err == nil {
		t.Fatal("step on missing session must fail")
	}
}

// TestTilesOutOfRange: a tile count below zero or above the scenario
// workload's own count is refused at create and at sweep, before any
// simulation; the bounds themselves are accepted.
func TestTilesOutOfRange(t *testing.T) {
	e := New(1)
	ctx := context.Background()
	b, _ := platform.ScenarioByKey("b")
	c, _ := platform.ScenarioByKey("c")
	for _, tc := range []struct {
		sc    platform.Scenario
		tiles int
	}{{b, -5}, {b, -1}, {b, 102}, {b, 1000000}, {c, 129}} {
		_, err := e.CreateSession(SessionConfig{ScenarioKey: tc.sc.Key, Tiles: tc.tiles})
		if err == nil || !strings.Contains(err.Error(), "outside [") {
			t.Fatalf("create %s tiles=%d: err %v, want out of range", tc.sc.Key, tc.tiles, err)
		}
		if _, err := e.SweepCtx(ctx, tc.sc, harness.SimOptions{Tiles: tc.tiles}, SweepOptions{}); err == nil ||
			!strings.Contains(err.Error(), "outside [") {
			t.Fatalf("sweep %s tiles=%d: err %v, want out of range", tc.sc.Key, tc.tiles, err)
		}
	}
	for _, tiles := range []int{0, 4, 101} {
		if _, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Tiles: tiles}); err != nil {
			t.Fatalf("create tiles=%d: %v", tiles, err)
		}
	}
	if _, err := e.CreateSession(SessionConfig{ScenarioKey: "c", Tiles: 128}); err != nil {
		t.Fatalf("create c tiles=128: %v", err)
	}
}

// TestDriverBatchLiar exercises the constant-liar fill-in directly.
func TestDriverBatchLiar(t *testing.T) {
	e := New(1)
	s, err := e.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "UCB", Seed: 11, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before any observation and with a cold cache there is nothing
	// credible to lie with: the batch degrades to a single proposal.
	first, _, err := e.BatchStepIdem(context.Background(), s.id, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("cold batch returned %d steps, want 1 (no credible lie yet)", len(first))
	}
	// With history, batches fill to k.
	batch, _, err := e.BatchStepIdem(context.Background(), s.id, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("warm batch returned %d steps, want 4", len(batch))
	}
	n := s.ev.Scenario.Platform.N()
	for _, st := range batch {
		if st.Action < 1 || st.Action > n {
			t.Fatalf("batch proposed action %d outside [1, %d]", st.Action, n)
		}
	}
}
