// Package cholesky provides the tiled Cholesky factorization in two
// complementary forms, mirroring the role the Chameleon library plays for
// ExaGeoStat:
//
//   - a task-graph builder (BuildDAG) that declares the POTRF/TRSM/SYRK/
//     GEMM dependency structure for the simulated task runtime, and
//   - real numeric tile kernels plus a goroutine-parallel tiled executor
//     (TiledCholesky) used by the actual GeoStatistics computations and
//     as a correctness oracle for the DAG shape.
package cholesky

import (
	"phasetune/internal/taskrt"
)

// Costs gives the flop counts of the four tile kernels for one tile size.
type Costs struct {
	POTRF float64
	TRSM  float64
	SYRK  float64
	GEMM  float64
}

// KernelCosts returns the classical dense flop counts for b x b tiles,
// in Gflop (matching the runtime's Gflop/s speeds).
func KernelCosts(tileSize int) Costs {
	b := float64(tileSize)
	const g = 1e-9
	return Costs{
		POTRF: b * b * b / 3 * g,
		TRSM:  b * b * b * g,
		SYRK:  b * b * b * g,
		GEMM:  2 * b * b * b * g,
	}
}

// BuildDAG declares the right-looking tiled Cholesky task graph over a
// tiles x tiles lower-triangular block matrix.
//
// Every task runs on the owner of the tile (i, j), i >= j, it writes,
// in the given owner set (owner-computes). producers, when non-nil,
// supplies the task that produces tile (i, j) — the generation phase —
// so that factorization overlaps generation through fine-grained
// dependencies exactly as in the paper's Figure 1. tileBytes is the
// size of one tile for dependency transfers.
//
// It returns the per-diagonal POTRF tasks (the panel roots, used by the
// solve/determinant phases).
func BuildDAG(b *taskrt.Builder, tiles int, tileBytes float64, costs Costs,
	owner taskrt.OwnerSet, producers [][]taskrt.TaskID) []taskrt.TaskID {

	// lastWriter[i][j] tracks the task whose output is the current
	// version of tile (i, j).
	lastWriter := make([][]taskrt.TaskID, tiles)
	for i := range lastWriter {
		lastWriter[i] = make([]taskrt.TaskID, i+1)
		for j := range lastWriter[i] {
			lastWriter[i][j] = taskrt.NoTask
		}
		if producers != nil {
			copy(lastWriter[i], producers[i])
		}
	}
	prio := func(k, rank int) int64 { return int64(tiles-k)*4 + int64(rank) }

	potrfs := make([]taskrt.TaskID, tiles)
	trsms := make([]taskrt.TaskID, tiles)
	for k := 0; k < tiles; k++ {
		p := b.Add(taskrt.NewLabel("potrf", k), "potrf",
			costs.POTRF, owner.At(k, k), false, prio(k, 3))
		b.Dep(p, lastWriter[k][k], tileBytes)
		lastWriter[k][k] = p
		potrfs[k] = p

		for i := k + 1; i < tiles; i++ {
			t := b.Add(taskrt.NewLabel("trsm", i, k), "trsm",
				costs.TRSM, owner.At(i, k), false, prio(k, 2))
			b.Dep(t, p, tileBytes)
			b.Dep(t, lastWriter[i][k], tileBytes)
			lastWriter[i][k] = t
			trsms[i] = t
		}
		for i := k + 1; i < tiles; i++ {
			for j := k + 1; j <= i; j++ {
				var u taskrt.TaskID
				if i == j {
					u = b.Add(taskrt.NewLabel("syrk", i, k), "syrk",
						costs.SYRK, owner.At(i, i), false, prio(k, 1))
					b.Dep(u, trsms[i], tileBytes)
				} else {
					u = b.Add(taskrt.NewLabel("gemm", i, j, k), "gemm",
						costs.GEMM, owner.At(i, j), false, prio(k, 0))
					b.Dep(u, trsms[i], tileBytes)
					b.Dep(u, trsms[j], tileBytes)
				}
				b.Dep(u, lastWriter[i][j], tileBytes)
				lastWriter[i][j] = u
			}
		}
	}
	return potrfs
}

// TaskCount returns the number of tasks BuildDAG submits for a given tile
// count: T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk + T(T-1)(T-2)/6 gemm.
func TaskCount(tiles int) int {
	t := tiles
	return t + t*(t-1)/2 + t*(t-1)/2 + t*(t-1)*(t-2)/6
}
