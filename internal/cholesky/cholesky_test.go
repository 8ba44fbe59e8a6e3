package cholesky

import (
	"math"
	"math/rand"
	"testing"

	"phasetune/internal/des"
	"phasetune/internal/linalg"
	"phasetune/internal/simnet"
	"phasetune/internal/taskrt"
)

func randomSPDMatrix(n int, rng *rand.Rand) *linalg.Matrix {
	b := linalg.NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := linalg.Mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestPOTRFMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPDMatrix(8, rng)
	tile := NewTile(8)
	copy(tile.Data, a.Data)
	if err := POTRF(tile); err != nil {
		t.Fatal(err)
	}
	want, err := linalg.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(tile.At(i, j)-want.At(i, j)) > 1e-10 {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, tile.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestPOTRFRejectsIndefinite(t *testing.T) {
	tile := NewTile(2)
	tile.Set(0, 0, 1)
	tile.Set(0, 1, 2)
	tile.Set(1, 0, 2)
	tile.Set(1, 1, 1)
	if err := POTRF(tile); err != ErrTileNotPD {
		t.Fatalf("err = %v", err)
	}
}

func TestTiledCholeskyMatchesDense(t *testing.T) {
	for _, cfg := range []struct{ tiles, b, workers int }{
		{1, 8, 1}, {2, 4, 1}, {4, 4, 2}, {6, 5, 4}, {8, 4, 8},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.tiles*100 + cfg.b)))
		n := cfg.tiles * cfg.b
		a := randomSPDMatrix(n, rng)
		tm, err := FromDense(a, cfg.b)
		if err != nil {
			t.Fatal(err)
		}
		if err := TiledCholesky(tm, cfg.workers); err != nil {
			t.Fatalf("TiledCholesky(%+v): %v", cfg, err)
		}
		want, err := linalg.Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := tm.ToDenseLower()
		if d := linalg.MaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("cfg %+v: max diff %v", cfg, d)
		}
	}
}

func TestTiledCholeskyErrorPropagates(t *testing.T) {
	// An indefinite matrix must surface ErrTileNotPD, not hang.
	n, b := 8, 4
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1) // rank-1, not PD
		}
	}
	tm, err := FromDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := TiledCholesky(tm, 4); err == nil {
		t.Fatal("expected error for non-PD matrix")
	}
}

func TestFromDenseValidation(t *testing.T) {
	if _, err := FromDense(linalg.NewMatrix(5, 5), 2); err == nil {
		t.Fatal("non-multiple dimension should error")
	}
	if _, err := FromDense(linalg.NewMatrix(4, 6), 2); err == nil {
		t.Fatal("non-square should error")
	}
}

func TestSolvesAndLogDet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, b := 12, 4
	a := randomSPDMatrix(n, rng)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	rhs := linalg.MulVec(a, xTrue)

	tm, err := FromDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := TiledCholesky(tm, 3); err != nil {
		t.Fatal(err)
	}
	x := BackwardSolve(tm, ForwardSolve(tm, rhs))
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
	lref, err := linalg.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LogDet(tm), linalg.LogDetFromChol(lref); math.Abs(got-want) > 1e-8 {
		t.Fatalf("LogDet = %v, want %v", got, want)
	}
}

func TestKernelCosts(t *testing.T) {
	c := KernelCosts(100)
	if math.Abs(c.GEMM-2*c.TRSM) > 1e-12 || math.Abs(c.TRSM-3*c.POTRF) > 1e-12 {
		t.Fatalf("cost ratios wrong: %+v", c)
	}
	if c.GEMM != 2e-3 { // 2*100^3 flops = 2e6 flops = 2e-3 Gflop
		t.Fatalf("GEMM cost = %v", c.GEMM)
	}
}

func TestTaskCount(t *testing.T) {
	// T=4: 4 potrf + 6 trsm + 6 syrk + 4 gemm = 20.
	if got := TaskCount(4); got != 20 {
		t.Fatalf("TaskCount(4) = %d", got)
	}
	if got := TaskCount(1); got != 1 {
		t.Fatalf("TaskCount(1) = %d", got)
	}
}

// finishLog is an observer recording each task's completion time by id.
type finishLog map[int]float64

func (f finishLog) TaskStarted(*taskrt.Task, string, float64) {}
func (f finishLog) TaskFinished(t *taskrt.Task, _ string, at float64) {
	f[t.ID] = at
}

func TestBuildDAGTaskCountAndCompletion(t *testing.T) {
	eng := des.NewEngine()
	topo := simnet.Topology{NICBandwidth: 1e12, Latency: 0}
	net := simnet.NewFluid(eng, 2, topo)
	rt := taskrt.New(eng, []taskrt.NodeSpec{{CPUSpeed: 10}, {CPUSpeed: 10}}, net)
	rt.TaskOverhead = 0
	T := 6
	var b taskrt.Builder
	potrfs := BuildDAG(&b, T, 1000, KernelCosts(10), 0, nil)
	rt.Load(b.Build(), func(i, j int) int { return j % 2 })
	if rt.NumTasks() != TaskCount(T) {
		t.Fatalf("tasks = %d, want %d", rt.NumTasks(), TaskCount(T))
	}
	finished := finishLog{}
	rt.SetObserver(finished)
	mk := rt.Run()
	if mk <= 0 {
		t.Fatalf("makespan = %v", mk)
	}
	for k, p := range potrfs {
		at, done := finished[int(p)]
		if !done {
			t.Fatalf("potrf %d not executed", k)
		}
		if k > 0 && at < finished[int(potrfs[k-1])] {
			t.Fatal("potrf panel order violated")
		}
	}
}

func TestBuildDAGRespectsGenerationProducers(t *testing.T) {
	// Factorization tasks must wait for the generation task of their
	// tile; with a huge generation cost on tile (0,0) the makespan is
	// dominated by it.
	eng := des.NewEngine()
	net := simnet.NewFluid(eng, 1, simnet.Topology{NICBandwidth: 1e12})
	rt := taskrt.New(eng, []taskrt.NodeSpec{{CPUSpeed: 1, GPUSpeeds: []float64{1, 1, 1}}}, net)
	rt.TaskOverhead = 0
	T := 3
	var b taskrt.Builder
	producers := make([][]taskrt.TaskID, T)
	for i := range producers {
		producers[i] = make([]taskrt.TaskID, i+1)
		for j := 0; j <= i; j++ {
			cost := 1.0
			if i == 0 && j == 0 {
				cost = 1000
			}
			producers[i][j] = b.Add(taskrt.NewLabel("gen"), "gen", cost, taskrt.Place{}, true, 100)
		}
	}
	BuildDAG(&b, T, 0, KernelCosts(10), 0, producers)
	rt.Load(b.Build(), func(i, j int) int { return 0 })
	mk := rt.Run()
	if mk < 1000 {
		t.Fatalf("makespan = %v: factorization did not wait for generation", mk)
	}
}

func TestBuildDAGMoreNodesFasterWhenCommFree(t *testing.T) {
	// With an infinitely fast network, spreading columns over 4 nodes
	// must beat 1 node.
	run := func(nodes int) float64 {
		eng := des.NewEngine()
		net := simnet.NewFluid(eng, nodes, simnet.Topology{NICBandwidth: 1e15})
		specs := make([]taskrt.NodeSpec, nodes)
		for i := range specs {
			specs[i] = taskrt.NodeSpec{CPUSpeed: 10}
		}
		rt := taskrt.New(eng, specs, net)
		rt.TaskOverhead = 0
		var b taskrt.Builder
		BuildDAG(&b, 12, 100, KernelCosts(10), 0, nil)
		rt.Load(b.Build(), func(i, j int) int { return j % nodes })
		return rt.Run()
	}
	t1, t4 := run(1), run(4)
	if t4 >= t1 {
		t.Fatalf("4 nodes (%v) not faster than 1 (%v)", t4, t1)
	}
}
