// Package harness glues the substrates together into the paper's
// experiments: it simulates ExaGeoStat iterations over the 16 scenarios,
// computes LP lower bounds, tabulates duration curves and resampling
// pools, replays every exploration strategy with the Section V
// methodology, and emits the data behind each figure and table (see the
// experiment index in DESIGN.md).
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"phasetune/internal/des"
	"phasetune/internal/geostat"
	"phasetune/internal/lp"
	"phasetune/internal/platform"
	"phasetune/internal/simnet"
	"phasetune/internal/taskrt"
)

// SimOptions controls one iteration simulation.
type SimOptions struct {
	// Tiles overrides the workload tile count (0 keeps the paper size);
	// tests and benchmarks use reduced sizes.
	Tiles int
	// Exact selects the fluid max-min network model instead of the
	// frozen-rate approximation.
	Exact bool
	// GenNodes restricts the generation phase to the fastest k nodes
	// (0 = all nodes, the paper's default).
	GenNodes int
	// Observer receives task events (tracing); may be nil.
	Observer taskrt.Observer
}

func (o SimOptions) tiles(sc platform.Scenario) int {
	if o.Tiles > 0 {
		return o.Tiles
	}
	return sc.Workload.Tiles
}

// NodeSpecs converts a platform to runtime node specifications.
func NodeSpecs(p *platform.Platform) []taskrt.NodeSpec {
	specs := make([]taskrt.NodeSpec, p.N())
	for i, n := range p.Nodes {
		gpus := make([]float64, n.Class.NumGPUs)
		for g := range gpus {
			gpus[g] = n.Class.GPUSpeed
		}
		specs[i] = taskrt.NodeSpec{
			CPUSpeed:  n.Class.CPUSpeed,
			CPUCores:  n.Class.Cores,
			GPUSpeeds: gpus,
		}
	}
	return specs
}

// SimulateIteration runs one deterministic application iteration with
// nFact factorization nodes (the fastest ones) and returns its makespan
// in seconds. The generation phase uses all nodes unless opts.GenNodes
// restricts it.
//
// SimulateIteration is reentrant: every call builds a fresh DES engine,
// network and runtime over an immutable iteration graph shared per
// shape, and takes its run state from a pool, so concurrent calls from
// different goroutines are safe as long as opts.Observer is nil or
// itself safe for concurrent use. The engine's worker pool relies on
// this (see Evaluator).
func SimulateIteration(sc platform.Scenario, nFact int, opts SimOptions) (float64, error) {
	mk, _, err := simulateIteration(sc, nFact, opts, nil)
	return mk, err
}

// simulateIteration is SimulateIteration with an optional injection hook
// called on the built runtime before it runs — the seam through which
// the fault harness schedules mid-iteration crashes and slowdowns. It
// additionally reports how many task executions the runtime recovered.
func simulateIteration(sc platform.Scenario, nFact int, opts SimOptions,
	inject func(*taskrt.Runtime)) (float64, int, error) {

	p := sc.Platform
	if nFact < 1 || nFact > p.N() {
		return 0, 0, fmt.Errorf("harness: nFact %d outside [1, %d]", nFact, p.N())
	}
	nGen := opts.GenNodes
	if nGen <= 0 || nGen > p.N() {
		nGen = p.N()
	}
	tiles := opts.tiles(sc)

	eng := des.NewEngine()
	var net simnet.Network
	if opts.Exact {
		net = simnet.NewFluid(eng, p.N(), p.Network)
	} else {
		net = simnet.NewFast(eng, p.N(), p.Network)
	}
	rt := taskrt.New(eng, NodeSpecs(p), net)
	if opts.Observer != nil {
		rt.SetObserver(opts.Observer)
	}
	spec := geostat.IterationSpec{
		Tiles:      tiles,
		TileSize:   sc.Workload.TileSize,
		TileBytes:  sc.Workload.TileBytes(),
		GenSpeeds:  p.GenSpeeds()[:nGen],
		FactSpeeds: p.FactSpeeds()[:nFact],
	}
	if err := geostat.BuildIterationGraph(rt, spec); err != nil {
		return 0, 0, err
	}
	if inject != nil {
		inject(rt)
	}
	return rt.Run(), rt.RecoveredTasks(), nil
}

// LPBound computes the paper's optimistic makespan lower bound for every
// action: the task-allocation LP over the generation work (all nodes,
// CPU-only) and the factorization work (the n fastest nodes), sharing
// per-node capacity. Communications and the critical path are ignored —
// exactly the optimism the bound mechanism relies on. The LP has two
// task classes, so lp.TwoClassMakespan solves it in closed form.
func LPBound(sc platform.Scenario, opts SimOptions) (func(n int) float64, error) {
	return lpBound(sc, opts, lp.TwoClassMakespan)
}

// SimplexLPBound is LPBound solved by the dense two-phase simplex, one LP
// per action. The two agree to rounding but not bit for bit, so this is
// the bound of sessions whose journals name strategy model 1, and the
// oracle LPBound is tested against.
func SimplexLPBound(sc platform.Scenario, opts SimOptions) (func(n int) float64, error) {
	return lpBound(sc, opts, func(gen, fact lp.TaskClass) (float64, error) {
		alloc, err := lp.SolveAllocation([]lp.TaskClass{gen, fact}, len(gen.Costs))
		if err != nil {
			return 0, err
		}
		return alloc.Makespan, nil
	})
}

// lpBound tabulates the bound at every action with solve.
func lpBound(sc platform.Scenario, opts SimOptions,
	solve func(gen, fact lp.TaskClass) (float64, error)) (func(n int) float64, error) {
	p := sc.Platform
	tiles := opts.tiles(sc)
	b := float64(sc.Workload.TileSize)
	t := float64(tiles)
	genWork := t * (t + 1) / 2 * b * b * geostat.GenFlopsPerElement // Gflop
	factWork := t * t * t / 3 * b * b * b * 1e-9                    // Gflop

	genCosts := make([]float64, p.N())
	for i, s := range p.GenSpeeds() {
		genCosts[i] = 1 / s
	}
	factSpeeds := p.FactSpeeds()

	cache := make([]float64, p.N()+1)
	for n := 1; n <= p.N(); n++ {
		factCosts := make([]float64, p.N())
		for i := range factCosts {
			if i < n {
				factCosts[i] = 1 / factSpeeds[i]
			} else {
				factCosts[i] = math.Inf(1)
			}
		}
		mk, err := solve(lp.TaskClass{Name: "gen", Count: genWork, Costs: genCosts},
			lp.TaskClass{Name: "fact", Count: factWork, Costs: factCosts})
		if err != nil {
			return nil, fmt.Errorf("harness: LP bound at n=%d: %w", n, err)
		}
		cache[n] = mk
	}
	return func(n int) float64 {
		if n < 1 {
			n = 1
		}
		if n > p.N() {
			n = p.N()
		}
		return cache[n]
	}, nil
}

// errCollector records the first error seen across parallel workers.
// parallelFor callbacks run on several goroutines, so a bare
// `if err != nil && firstErr == nil { firstErr = err }` is a data race;
// every parallel loop in this package funnels errors through here.
type errCollector struct {
	mu  sync.Mutex
	err error
}

// record stores err if it is the first non-nil error observed.
func (c *errCollector) record(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// first returns the first recorded error, or nil.
func (c *errCollector) first() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// parallelFor runs fn(i) for i in [0, n) over a worker pool.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
