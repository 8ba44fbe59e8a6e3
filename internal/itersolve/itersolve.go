// Package itersolve is the second iterative multi-phase application (the
// paper's conclusion proposes evaluating the tuning strategies beyond
// ExaGeoStat): an LU-based iterative-refinement linear solver whose every
// iteration runs four phases — assembly (CPU-only, embarrassingly
// parallel), LU factorization (GPU-heavy, communication-bound),
// triangular solves, and residual evaluation. The phase mix differs from
// the GeoStatistics application (full square matrix, heavier updates), so
// the tuning problem has the same structure but different constants.
package itersolve

import (
	"errors"
	"fmt"
	"time"

	"phasetune/internal/distribution"
	"phasetune/internal/linalg"
	"phasetune/internal/lu"
	"phasetune/internal/taskrt"
)

// AsmFlopsPerElement is the calibrated per-element assembly cost in Gflop
// (quadrature-style element evaluation).
const AsmFlopsPerElement = 4e-6

// IterationSpec parameterizes the simulated task graph of one solver
// iteration (node indexing as in geostat.IterationSpec: fastest first,
// assembly on len(AsmSpeeds) nodes, factorization on len(FactSpeeds)).
type IterationSpec struct {
	Tiles      int
	TileSize   int
	TileBytes  float64
	AsmSpeeds  []float64
	FactSpeeds []float64
}

// Owner sets of the iteration graph: assembly tiles and the residual
// follow the assembly distribution, the factorization and the solves the
// factorization one.
const (
	asmOwner taskrt.OwnerSet = iota
	factOwner
)

// maxShapes bounds the built iteration graphs kept for reuse.
const maxShapes = 4

type shape struct {
	tiles, tileSize int
	tileBytes       float64
}

var shapes = taskrt.NewGraphCache[shape](maxShapes)

// BuildIterationGraph loads assembly + LU + solve + residual phases on
// the runtime, building the graph once per shape.
func BuildIterationGraph(rt *taskrt.Runtime, spec IterationSpec) error {
	if spec.Tiles <= 0 || spec.TileSize <= 0 {
		return fmt.Errorf("itersolve: bad iteration spec %+v", spec)
	}
	if len(spec.AsmSpeeds) == 0 || len(spec.FactSpeeds) == 0 {
		return fmt.Errorf("itersolve: empty node speed sets")
	}
	key := shape{spec.Tiles, spec.TileSize, spec.TileBytes}
	g := shapes.Get(key, func() *taskrt.Graph { return iterationGraph(key) })
	asmDist := distribution.FullDist(spec.Tiles, spec.AsmSpeeds)
	// WeightedGrid is defined over any (i, j) pair: row and column
	// patterns are independent, so the full grid is covered.
	factDist := distribution.WeightedGrid(spec.Tiles, spec.FactSpeeds)
	rt.Load(g, asmDist.Owner, factDist.Owner)
	return nil
}

// iterationGraph declares the four phases of one solver iteration.
func iterationGraph(s shape) *taskrt.Graph {
	T := s.tiles
	b := float64(s.tileSize)
	asmFlops := b * b * AsmFlopsPerElement
	var gb taskrt.Builder
	producers := make([][]taskrt.TaskID, T)
	for i := 0; i < T; i++ {
		producers[i] = make([]taskrt.TaskID, T)
		for j := 0; j < T; j++ {
			prio := int64(T-min(i, j)) * 4
			producers[i][j] = gb.Add(taskrt.NewLabel("asm", i, j), "asm",
				asmFlops, asmOwner.At(i, j), true, prio)
		}
	}
	getrfs := lu.BuildDAG(&gb, T, s.tileBytes, lu.KernelCosts(s.tileSize),
		factOwner, producers)

	const g = 1e-9
	vecBytes := b * 8
	trsv := 2 * b * b * g
	fwd := taskrt.NoTask
	for k := 0; k < T; k++ {
		t := gb.Add(taskrt.NewLabel("fwd", k), "solve",
			trsv, factOwner.At(k, k), false, 2)
		gb.Dep(t, getrfs[k], s.tileBytes)
		gb.Dep(t, fwd, vecBytes)
		fwd = t
	}
	bwd := fwd
	for k := T - 1; k >= 0; k-- {
		t := gb.Add(taskrt.NewLabel("bwd", k), "solve",
			trsv, factOwner.At(k, k), false, 2)
		gb.Dep(t, bwd, vecBytes)
		bwd = t
	}
	// Residual: one matvec task per block row against the assembled
	// matrix, then a norm reduction.
	rprev := taskrt.NoTask
	for i := 0; i < T; i++ {
		r := gb.Add(taskrt.NewLabel("resid", i), "resid",
			2*b*b*float64(T)*g, asmOwner.At(i, i), false, 1)
		gb.Dep(r, bwd, vecBytes)
		gb.Dep(r, producers[i][i], 0)
		gb.Dep(r, rprev, 8)
		rprev = r
	}
	norm := gb.Add(taskrt.NewLabel("norm"), "norm", b*g, asmOwner.At(0, 0), false, 0)
	gb.Dep(norm, rprev, 8)
	return gb.Build()
}

// PhaseTimings records the real (wall-clock) cost of the refinement
// phases.
type PhaseTimings struct {
	Assembly      time.Duration
	Factorization time.Duration
	Solve         time.Duration
	Residual      time.Duration
}

// Result reports a real iterative-refinement solve.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64
	Timings    PhaseTimings
}

// ErrNoConvergence reports that refinement stalled above the tolerance.
var ErrNoConvergence = errors.New("itersolve: no convergence")

// Refine solves A x = b by LU factorization plus iterative refinement
// with real numerics (A must be diagonally dominant for the unpivoted
// tiled LU). tile is the tile size (must divide len(b)); workers sets the
// factorization parallelism.
func Refine(a *linalg.Matrix, rhs []float64, tile, workers, maxIter int, tol float64) (Result, error) {
	var res Result
	if maxIter <= 0 {
		maxIter = 10
	}
	if tol <= 0 {
		tol = 1e-10
	}
	t0 := time.Now()
	m, err := lu.FromDense(a, tile)
	if err != nil {
		return res, err
	}
	res.Timings.Assembly = time.Since(t0) // tiling stands in for assembly

	t0 = time.Now()
	if err := lu.TiledLU(m, workers); err != nil {
		return res, err
	}
	res.Timings.Factorization = time.Since(t0)

	t0 = time.Now()
	x := m.Solve(rhs)
	res.Timings.Solve = time.Since(t0)

	for it := 0; it < maxIter; it++ {
		t0 = time.Now()
		r := make([]float64, len(rhs))
		ax := linalg.MulVec(a, x)
		for i := range r {
			r[i] = rhs[i] - ax[i]
		}
		norm := linalg.Norm2(r)
		res.Timings.Residual += time.Since(t0)
		res.Iterations = it + 1
		res.Residual = norm
		if norm <= tol {
			res.X = x
			return res, nil
		}
		t0 = time.Now()
		dx := m.Solve(r)
		linalg.AXPY(1, dx, x)
		res.Timings.Solve += time.Since(t0)
	}
	res.X = x
	if res.Residual > tol {
		return res, ErrNoConvergence
	}
	return res, nil
}
