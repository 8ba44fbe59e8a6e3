package engine

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

// The benchmark workload: a 64-point f(n) sweep on a 64-node Chifflet
// (paper Table II, G5K Medium) platform, requested by 8 concurrent
// tuning clients — the service-shaped load the engine exists for. The
// sequential baseline is the status quo before this subsystem: each
// client runs its own SimulateIteration loop, 8 x 64 evaluations, no
// sharing. The engine serves the same 8 clients with an 8-slot worker
// pool and the shared singleflight cache, so each of the 64 points is
// simulated exactly once; speedup comes from that deduplication (the
// floor, ~8x, holds even on a single-core host) plus pool parallelism
// on multi-core hosts.
const (
	benchClients = 8
	benchWorkers = 8
	benchTiles   = 12
)

func benchScenario() (platform.Scenario, harness.SimOptions) {
	p := platform.Build("G5K 64M (chifflet)", platform.G5KNetwork,
		platform.GroupSpec{Class: platform.G5KChifflet, Count: 64})
	sc := platform.Scenario{
		Key:      "bench-chifflet",
		Name:     "G5K 64M chifflet (bench)",
		Platform: p,
		Workload: platform.W101,
		MinNodes: 1,
	}
	return sc, harness.SimOptions{Tiles: benchTiles}
}

// sequentialClients runs the no-engine baseline and returns its best
// action (argmin of the deterministic makespans).
func sequentialClients(b *testing.B, sc platform.Scenario, opts harness.SimOptions) int {
	b.Helper()
	best, bestMk := 0, math.Inf(1)
	for c := 0; c < benchClients; c++ {
		for a := 1; a <= sc.Platform.N(); a++ {
			mk, err := harness.SimulateIteration(sc, a, opts)
			if err != nil {
				b.Fatal(err)
			}
			if mk < bestMk {
				best, bestMk = a, mk
			}
		}
	}
	return best
}

// engineClients serves the same load through a fresh engine (cold
// cache) and returns the clients' agreed best action.
func engineClients(b *testing.B, sc platform.Scenario, opts harness.SimOptions) int {
	b.Helper()
	eng := New(benchWorkers)
	results := make([]*SweepResult, benchClients)
	var wg sync.WaitGroup
	var errs errCollector
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := eng.SweepCtx(context.Background(), sc, opts, SweepOptions{})
			if err != nil {
				errs.record(err)
				return
			}
			results[c] = r
		}(c)
	}
	wg.Wait()
	if err := errs.first(); err != nil {
		b.Fatal(err)
	}
	for _, r := range results[1:] {
		if r.BestAction != results[0].BestAction {
			b.Fatalf("clients disagree on best n: %d vs %d", r.BestAction, results[0].BestAction)
		}
	}
	return results[0].BestAction
}

func BenchmarkSweepSequentialClients(b *testing.B) {
	sc, opts := benchScenario()
	for i := 0; i < b.N; i++ {
		sequentialClients(b, sc, opts)
	}
	b.ReportMetric(float64(benchClients*sc.Platform.N()*b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkSweepEngine8Workers(b *testing.B) {
	sc, opts := benchScenario()
	for i := 0; i < b.N; i++ {
		engineClients(b, sc, opts)
	}
	b.ReportMetric(float64(benchClients*sc.Platform.N()*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkEngineThroughput measures both modes back to back, checks
// the engine's best n against the sequential harness's, and reports the
// speedup and the engine's points/s. It writes no file: the committed
// BENCH_engine.json is a historical record.
func BenchmarkEngineThroughput(b *testing.B) {
	sc, opts := benchScenario()
	points := benchClients * sc.Platform.N()

	var seqSec, engSec float64
	var seqBest, engBest int
	for i := 0; i < b.N; i++ {
		start := time.Now()
		seqBest = sequentialClients(b, sc, opts)
		seqSec = time.Since(start).Seconds()

		start = time.Now()
		engBest = engineClients(b, sc, opts)
		engSec = time.Since(start).Seconds()

		if engBest != seqBest {
			b.Fatalf("engine best n=%d, sequential best n=%d — must be identical", engBest, seqBest)
		}
	}

	speedup := seqSec / engSec
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(points)/engSec, "engine-points/s")
}
