package lu

import (
	"phasetune/internal/taskrt"
)

// Costs gives the flop counts of the LU tile kernels in Gflop.
type Costs struct {
	GETRF float64
	TRSM  float64
	GEMM  float64
}

// KernelCosts returns dense flop counts for b x b tiles.
func KernelCosts(tileSize int) Costs {
	b := float64(tileSize)
	const g = 1e-9
	return Costs{
		GETRF: 2 * b * b * b / 3 * g,
		TRSM:  b * b * b * g,
		GEMM:  2 * b * b * b * g,
	}
}

// BuildDAG declares the tiled LU task graph over a full tiles x tiles
// block matrix. Every task runs on the owner of the tile (i, j) (both
// triangles) it writes, in the given owner set; producers optionally
// supplies per-tile producer tasks (the assembly phase). It returns the
// per-panel GETRF tasks.
func BuildDAG(b *taskrt.Builder, tiles int, tileBytes float64, costs Costs,
	owner taskrt.OwnerSet, producers [][]taskrt.TaskID) []taskrt.TaskID {

	lastWriter := make([][]taskrt.TaskID, tiles)
	for i := range lastWriter {
		lastWriter[i] = make([]taskrt.TaskID, tiles)
		for j := range lastWriter[i] {
			lastWriter[i][j] = taskrt.NoTask
		}
		if producers != nil {
			copy(lastWriter[i], producers[i])
		}
	}
	prio := func(k, rank int) int64 { return int64(tiles-k)*4 + int64(rank) }
	getrfs := make([]taskrt.TaskID, tiles)
	rowT := make([]taskrt.TaskID, tiles)
	colT := make([]taskrt.TaskID, tiles)
	for k := 0; k < tiles; k++ {
		p := b.Add(taskrt.NewLabel("getrf", k), "getrf",
			costs.GETRF, owner.At(k, k), false, prio(k, 3))
		b.Dep(p, lastWriter[k][k], tileBytes)
		lastWriter[k][k] = p
		getrfs[k] = p

		for j := k + 1; j < tiles; j++ {
			t := b.Add(taskrt.NewLabel("trsml", k, j), "trsm",
				costs.TRSM, owner.At(k, j), false, prio(k, 2))
			b.Dep(t, p, tileBytes)
			b.Dep(t, lastWriter[k][j], tileBytes)
			lastWriter[k][j] = t
			rowT[j] = t
		}
		for i := k + 1; i < tiles; i++ {
			t := b.Add(taskrt.NewLabel("trsmu", i, k), "trsm",
				costs.TRSM, owner.At(i, k), false, prio(k, 2))
			b.Dep(t, p, tileBytes)
			b.Dep(t, lastWriter[i][k], tileBytes)
			lastWriter[i][k] = t
			colT[i] = t
		}
		for i := k + 1; i < tiles; i++ {
			for j := k + 1; j < tiles; j++ {
				u := b.Add(taskrt.NewLabel("gemm", i, j, k), "gemm",
					costs.GEMM, owner.At(i, j), false, prio(k, 0))
				b.Dep(u, colT[i], tileBytes)
				b.Dep(u, rowT[j], tileBytes)
				b.Dep(u, lastWriter[i][j], tileBytes)
				lastWriter[i][j] = u
			}
		}
	}
	return getrfs
}
