package lu

import (
	"math"
	"math/rand"
	"testing"

	"phasetune/internal/des"
	"phasetune/internal/linalg"
	"phasetune/internal/simnet"
	"phasetune/internal/taskrt"
)

func diagonallyDominant(n int, rng *rand.Rand) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, float64(2*n))
	}
	return a
}

func TestGETRFMatchesScalarLU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := diagonallyDominant(6, rng)
	tile := &Tile{B: 6, Data: append([]float64(nil), a.Data...)}
	if err := GETRF(tile); err != nil {
		t.Fatal(err)
	}
	// Rebuild A = L*U and compare.
	rebuilt := linalg.NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			s := 0.0
			for k := 0; k <= i && k <= j; k++ {
				lv := tile.At(i, k)
				if k == i {
					lv = 1
				}
				if k > i {
					lv = 0
				}
				uv := 0.0
				if k <= j {
					uv = tile.At(k, j)
				}
				s += lv * uv
			}
			rebuilt.Set(i, j, s)
		}
	}
	if d := linalg.MaxAbsDiff(rebuilt, a); d > 1e-9 {
		t.Fatalf("L*U differs from A by %v", d)
	}
}

func TestGETRFZeroPivot(t *testing.T) {
	tile := &Tile{B: 2, Data: []float64{0, 1, 1, 0}}
	if err := GETRF(tile); err != ErrZeroPivot {
		t.Fatalf("err = %v", err)
	}
}

func TestTiledLUSolve(t *testing.T) {
	for _, cfg := range []struct{ tiles, b, workers int }{
		{1, 8, 1}, {3, 4, 2}, {5, 4, 4},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.tiles)))
		n := cfg.tiles * cfg.b
		a := diagonallyDominant(n, rng)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs := linalg.MulVec(a, xTrue)
		m, err := FromDense(a, cfg.b)
		if err != nil {
			t.Fatal(err)
		}
		if err := TiledLU(m, cfg.workers); err != nil {
			t.Fatal(err)
		}
		x := m.Solve(rhs)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("cfg %+v: x[%d] = %v, want %v", cfg, i, x[i], xTrue[i])
			}
		}
	}
}

func TestTiledLUMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, b := 16, 4
	a := diagonallyDominant(n, rng)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	m, err := FromDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := TiledLU(m, 3); err != nil {
		t.Fatal(err)
	}
	got := m.Solve(rhs)
	want, err := linalg.SolveGeneral(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFromDenseValidation(t *testing.T) {
	if _, err := FromDense(linalg.NewMatrix(5, 5), 2); err == nil {
		t.Fatal("dimension not multiple of tile should error")
	}
	if _, err := FromDense(linalg.NewMatrix(4, 6), 2); err == nil {
		t.Fatal("non-square should error")
	}
}

func TestTaskCount(t *testing.T) {
	// T=3: 3 getrf + 6 trsm + (4+1) gemm = 14.
	if got := TaskCount(3); got != 14 {
		t.Fatalf("TaskCount(3) = %d", got)
	}
	if TaskCount(1) != 1 {
		t.Fatal("TaskCount(1)")
	}
}

// finishLog is an observer recording each task's completion time by id.
type finishLog map[int]float64

func (f finishLog) TaskStarted(*taskrt.Task, string, float64) {}
func (f finishLog) TaskFinished(t *taskrt.Task, _ string, at float64) {
	f[t.ID] = at
}

func TestBuildDAGExecutes(t *testing.T) {
	eng := des.NewEngine()
	net := simnet.NewFluid(eng, 2, simnet.Topology{NICBandwidth: 1e12})
	rt := taskrt.New(eng, []taskrt.NodeSpec{{CPUSpeed: 10}, {CPUSpeed: 10}}, net)
	rt.TaskOverhead = 0
	T := 5
	var b taskrt.Builder
	getrfs := BuildDAG(&b, T, 1000, KernelCosts(8), 0, nil)
	rt.Load(b.Build(), func(i, j int) int { return (i + j) % 2 })
	if rt.NumTasks() != TaskCount(T) {
		t.Fatalf("tasks = %d, want %d", rt.NumTasks(), TaskCount(T))
	}
	finished := finishLog{}
	rt.SetObserver(finished)
	mk := rt.Run()
	if mk <= 0 {
		t.Fatalf("makespan = %v", mk)
	}
	for k := 1; k < T; k++ {
		if finished[int(getrfs[k])] < finished[int(getrfs[k-1])] {
			t.Fatal("panel order violated")
		}
	}
}

func TestBuildDAGWithProducers(t *testing.T) {
	eng := des.NewEngine()
	net := simnet.NewFluid(eng, 1, simnet.Topology{NICBandwidth: 1e12})
	rt := taskrt.New(eng, []taskrt.NodeSpec{{CPUSpeed: 1, GPUSpeeds: []float64{1}}}, net)
	rt.TaskOverhead = 0
	T := 3
	var b taskrt.Builder
	producers := make([][]taskrt.TaskID, T)
	for i := range producers {
		producers[i] = make([]taskrt.TaskID, T)
		for j := range producers[i] {
			cost := 1.0
			if i == 0 && j == 0 {
				cost = 500
			}
			producers[i][j] = b.Add(taskrt.NewLabel("asm"), "asm", cost, taskrt.Place{}, true, 50)
		}
	}
	BuildDAG(&b, T, 0, KernelCosts(8), 0, producers)
	rt.Load(b.Build(), func(i, j int) int { return 0 })
	if mk := rt.Run(); mk < 500 {
		t.Fatalf("factorization did not wait for assembly: %v", mk)
	}
}
