package harness

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasetune/internal/des"
	"phasetune/internal/itersolve"
	"phasetune/internal/platform"
	"phasetune/internal/simnet"
	"phasetune/internal/taskrt"
	"phasetune/internal/trace"
)

// goldenScenarios are the 101-workload scenarios with at most 38 nodes,
// the ones the cold-cache benchmark load draws from.
var goldenScenarios = []string{"a", "b", "d", "e", "g", "i", "j"}

// simGolden computes every pinned value as "name value" lines, floats
// as their IEEE-754 bits so a last-bit drift shows.
func simGolden(t testing.TB) []string {
	var out []string
	bits := func(name string, v float64) {
		out = append(out, fmt.Sprintf("%s %016x", name, math.Float64bits(v)))
	}
	scenario := func(key string) platform.Scenario {
		sc, ok := platform.ScenarioByKey(key)
		if !ok {
			t.Fatalf("unknown scenario %q", key)
		}
		return sc
	}
	sim := func(sc platform.Scenario, n int, opts SimOptions) float64 {
		mk, err := SimulateIteration(sc, n, opts)
		if err != nil {
			t.Fatalf("%s n=%d %+v: %v", sc.Key, n, opts, err)
		}
		return mk
	}

	// Every action at two small tile counts, and one paper-shaped action
	// at 48 tiles, per scenario.
	for _, key := range goldenScenarios {
		sc := scenario(key)
		for _, tiles := range []int{12, 24} {
			for n := 1; n <= sc.Platform.N(); n++ {
				bits(fmt.Sprintf("fast/%s/%d/n=%d", key, tiles, n), sim(sc, n, SimOptions{Tiles: tiles}))
			}
		}
		n := (sc.Platform.N() + 1) / 2
		bits(fmt.Sprintf("fast/%s/48/n=%d", key, n), sim(sc, n, SimOptions{Tiles: 48}))
	}

	// Generation restricted to the fastest nodes.
	b := scenario("b")
	for _, gen := range []int{1, 2, 7} {
		for _, n := range []int{2, 7, 14} {
			bits(fmt.Sprintf("gen%d/b/12/n=%d", gen, n), sim(b, n, SimOptions{Tiles: 12, GenNodes: gen}))
		}
	}

	// A crash plus a transient slowdown in the middle of an iteration.
	healthy := sim(b, 7, SimOptions{Tiles: 24})
	mk, recovered, err := simulateIteration(b, 7, SimOptions{Tiles: 24}, func(rt *taskrt.Runtime) {
		rt.InjectSpeedFactor(0, 0.2*healthy, 0.5)
		rt.InjectCrash(3, 0.4*healthy)
		rt.InjectSpeedFactor(0, 0.6*healthy, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	bits("fault/b/24/n=7", mk)
	out = append(out, fmt.Sprintf("fault/b/24/n=7/recovered %d", recovered))

	// The second application's graph (LU iterative refinement).
	c := scenario("c")
	for n := 1; n <= c.Platform.N(); n++ {
		p := c.Platform
		eng := des.NewEngine()
		rt := taskrt.New(eng, NodeSpecs(p), simnet.NewFast(eng, p.N(), p.Network))
		if err := itersolve.BuildIterationGraph(rt, itersolve.IterationSpec{
			Tiles:      12,
			TileSize:   c.Workload.TileSize,
			TileBytes:  c.Workload.TileBytes(),
			AsmSpeeds:  p.GenSpeeds(),
			FactSpeeds: p.FactSpeeds()[:n],
		}); err != nil {
			t.Fatal(err)
		}
		bits(fmt.Sprintf("itersolve/c/12/n=%d", n), rt.Run())
	}

	// Everything an observer sees of one run.
	rec := trace.NewRecorder()
	sim(b, 5, SimOptions{Tiles: 12, Observer: rec})
	h := sha256.New()
	for _, s := range rec.Spans() {
		fmt.Fprintf(h, "%s|%s|%d|%s|%016x|%016x|%016x\n", s.Label, s.Kind, s.Node, s.Unit,
			math.Float64bits(s.Flops), math.Float64bits(s.Start), math.Float64bits(s.End))
	}
	out = append(out, fmt.Sprintf("spans/b/12/n=5 %d %x", len(rec.Spans()), h.Sum(nil)))
	return out
}

// TestSimulateIterationGolden pins the simulator's output bit for bit:
// makespans over every action of the cold-cache scenarios at 12 and 24
// tiles, one 48-tile action each, restricted generation, a fault run,
// the LU application's graph, and a hash of one observed run's spans
// must reproduce testdata/sim_golden.txt. The exact network model is
// left out: before its flows were kept in start order its rates summed
// in map order, so its last bits varied from run to run (see
// TestSimulateIterationExactDeterministic).
func TestSimulateIterationGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sim_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	got := simGolden(t)
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden values, testdata has %d", len(got), len(wantLines))
	}
	bad := 0
	for i := range got {
		if got[i] != wantLines[i] {
			bad++
			if bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden values differ from testdata/sim_golden.txt", bad, len(got))
	}
}

// TestSimulateIterationExactDeterministic: the exact fluid network
// model gives the same makespan bits on every run of the same point.
func TestSimulateIterationExactDeterministic(t *testing.T) {
	for _, key := range []string{"b", "d"} {
		sc, _ := platform.ScenarioByKey(key)
		for n := 1; n <= sc.Platform.N(); n += 3 {
			opts := SimOptions{Tiles: 12, Exact: true}
			first, err := SimulateIteration(sc, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 4; rep++ {
				mk, err := SimulateIteration(sc, n, opts)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(mk) != math.Float64bits(first) {
					t.Fatalf("%s n=%d: exact makespan %v on one run, %v on another", key, n, first, mk)
				}
			}
		}
	}
}
