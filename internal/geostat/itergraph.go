package geostat

import (
	"fmt"

	"phasetune/internal/cholesky"
	"phasetune/internal/distribution"
	"phasetune/internal/taskrt"
)

// GenFlopsPerElement is the calibrated cost of generating one covariance
// matrix element (Matérn evaluation) in Gflop. It controls the relative
// length of the CPU-only generation phase versus the factorization, tuned
// so the phase proportions match the paper's Figures 1-2.
const GenFlopsPerElement = 8e-6

// IterationSpec parameterizes the task graph of one application iteration
// for the simulated runtime.
//
// Node indices are platform indices (fastest first): the generation phase
// runs on nodes 0..len(GenSpeeds)-1 and the factorization on nodes
// 0..len(FactSpeeds)-1, mirroring the paper where generation uses all
// nodes and factorization the n fastest.
type IterationSpec struct {
	Tiles     int
	TileSize  int
	TileBytes float64
	// GenSpeeds are the CPU speeds of the generation nodes.
	GenSpeeds []float64
	// FactSpeeds are the factorization speeds of the factorization nodes.
	FactSpeeds []float64
}

// Owner sets of the iteration graph: generation tiles follow the
// generation distribution, everything else the factorization one.
const (
	genOwner taskrt.OwnerSet = iota
	factOwner
)

// maxShapes bounds the built iteration graphs kept for reuse. A graph
// depends only on its shape, and a tuning session keeps one shape, so
// this is the number of sessions of distinct shapes that run without
// rebuilding. The engine caps tiles at the scenario workload's own
// count, which bounds the size of each.
const maxShapes = 8

type shape struct {
	tiles, tileSize int
	tileBytes       float64
}

var shapes = taskrt.NewGraphCache[shape](maxShapes)

// BuildIterationGraph loads one iteration on the runtime: generation
// tasks (CPU-only, spread over the generation nodes), the tiled Cholesky
// DAG (over the factorization nodes, fine-grained dependencies letting
// the phases overlap), and the small solve / determinant / dot-product
// chains. The graph is built once per shape (tiles, tile size, tile
// bytes); each call computes only where its tasks run.
func BuildIterationGraph(rt *taskrt.Runtime, spec IterationSpec) error {
	if spec.Tiles <= 0 || spec.TileSize <= 0 {
		return fmt.Errorf("geostat: bad iteration spec %+v", spec)
	}
	if len(spec.GenSpeeds) == 0 || len(spec.FactSpeeds) == 0 {
		return fmt.Errorf("geostat: empty node speed sets")
	}
	key := shape{spec.Tiles, spec.TileSize, spec.TileBytes}
	g := shapes.Get(key, func() *taskrt.Graph { return iterationGraph(key) })
	genDist := distribution.GenerationDist(spec.Tiles, spec.GenSpeeds)
	factDist := distribution.WeightedGrid(spec.Tiles, spec.FactSpeeds)
	rt.Load(g, genDist.Owner, factDist.Owner)
	return nil
}

// iterationGraph declares the five phases of one iteration.
func iterationGraph(s shape) *taskrt.Graph {
	T := s.tiles
	b := float64(s.tileSize)
	genFlops := b * b * GenFlopsPerElement
	var gb taskrt.Builder

	// Generation: one CPU-only task per lower-triangle tile. Priority
	// follows the panel that first consumes the tile so early panels'
	// inputs materialize first and factorization overlaps generation.
	producers := make([][]taskrt.TaskID, T)
	for i := 0; i < T; i++ {
		producers[i] = make([]taskrt.TaskID, i+1)
		for j := 0; j <= i; j++ {
			prio := int64(T-j) * 4
			producers[i][j] = gb.Add(taskrt.NewLabel("gen", i, j), "gen",
				genFlops, genOwner.At(i, j), true, prio)
		}
	}

	potrfs := cholesky.BuildDAG(&gb, T, s.tileBytes,
		cholesky.KernelCosts(s.tileSize), factOwner, producers)

	// Solve: tiled forward/backward substitution approximated as a chain
	// of per-diagonal tasks gated by the panel roots.
	const g = 1e-9
	vecBytes := b * 8
	trsvFlops := 2 * b * b * g
	prev := taskrt.NoTask
	for k := 0; k < T; k++ {
		t := gb.Add(taskrt.NewLabel("solve", k), "solve",
			trsvFlops, factOwner.At(k, k), false, 2)
		gb.Dep(t, potrfs[k], s.tileBytes)
		gb.Dep(t, prev, vecBytes)
		prev = t
	}
	solveTail := prev

	// Determinant: per-diagonal log-sums reduced along a chain.
	dprev := taskrt.NoTask
	for k := 0; k < T; k++ {
		d := gb.Add(taskrt.NewLabel("det", k), "det",
			b*g, factOwner.At(k, k), false, 1)
		gb.Dep(d, potrfs[k], 0)
		gb.Dep(d, dprev, 8)
		dprev = d
	}

	// Dot product: consumes the solve result.
	dot := gb.Add(taskrt.NewLabel("dot"), "dot", 2*b*float64(T)*g,
		factOwner.At(T-1, T-1), false, 0)
	gb.Dep(dot, solveTail, vecBytes)
	gb.Dep(dot, dprev, 8)
	return gb.Build()
}
