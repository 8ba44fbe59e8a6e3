package engine

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
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
func engineClients(b *testing.B, sc platform.Scenario, opts harness.SimOptions) (int, CacheStats) {
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
	return results[0].BestAction, eng.Cache().Stats()
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
// the engine's best n against the sequential harness's, and writes the
// BENCH_engine.json artifact at the repository root (the CI bench smoke
// step uploads it; the committed copy seeds the bench trajectory).
func BenchmarkEngineThroughput(b *testing.B) {
	sc, opts := benchScenario()
	points := benchClients * sc.Platform.N()

	var seqSec, engSec float64
	var seqBest, engBest int
	var stats CacheStats
	for i := 0; i < b.N; i++ {
		start := time.Now()
		seqBest = sequentialClients(b, sc, opts)
		seqSec = time.Since(start).Seconds()

		start = time.Now()
		engBest, stats = engineClients(b, sc, opts)
		engSec = time.Since(start).Seconds()

		if engBest != seqBest {
			b.Fatalf("engine best n=%d, sequential best n=%d — must be identical", engBest, seqBest)
		}
	}

	speedup := seqSec / engSec
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(points)/engSec, "engine-points/s")

	artifact := map[string]any{
		"benchmark": "8 concurrent clients x 64-point evaluation sweep",
		"scenario":  sc.Name,
		"node_class": "G5K Chifflet (2x Xeon E5-2680 v4 + 2x GTX 1080)",
		"points":    sc.Platform.N(),
		"clients":   benchClients,
		"workers":   benchWorkers,
		"tiles":     benchTiles,
		"host_cpus": runtime.NumCPU(),
		"sequential": map[string]any{
			"seconds":        seqSec,
			"simulations":    points,
			"points_per_sec": float64(points) / seqSec,
		},
		"engine_8_workers": map[string]any{
			"seconds":        engSec,
			"simulations":    stats.Misses,
			"cache_hits":     stats.Hits,
			"hit_ratio":      stats.HitRatio,
			"points_per_sec": float64(points) / engSec,
		},
		"speedup":           speedup,
		"best_n_sequential": seqBest,
		"best_n_engine":     engBest,
		"best_n_match":      seqBest == engBest,
		"note": "speedup = shared singleflight cache deduplicating the clients' " +
			"overlapping evaluations (64 simulations instead of 512) plus worker-pool " +
			"parallelism on multi-core hosts; the dedup floor alone sustains ~8x on one core",
	}
	if path := artifactPath(); path != "" {
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Logf("could not write %s: %v", path, err)
		} else {
			b.Logf("wrote %s (speedup %.1fx, best n=%d)", path, speedup, engBest)
		}
	}
}

// artifactPath locates <repo root>/BENCH_engine.json by walking up to
// go.mod; "" when not run inside the module tree.
func artifactPath() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "BENCH_engine.json")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
