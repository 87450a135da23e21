package core

import (
	"fmt"

	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// This file rounds out the AT MATRIX operator surface beyond
// multiplication: transposition, tiled matrix-vector multiplication, and
// re-partitioning (compaction) of multiplication results.

// Transpose returns Aᵀ as an AT MATRIX. Each tile is transposed in place
// of its mirrored bounding box; the tile kinds are preserved (density is
// invariant under transposition). Tile homes are re-derived from the new
// tile-rows so the round-robin distribution policy of §III-F still holds;
// the socket count is recovered from the existing home tags.
func (a *ATMatrix) Transpose() *ATMatrix {
	out := newATMatrix(a.Cols, a.Rows, a.BAtomic)
	sockets := 1
	for _, t := range a.Tiles {
		if int(t.Home)+1 > sockets {
			sockets = int(t.Home) + 1
		}
	}
	for _, t := range a.Tiles {
		nt := &Tile{
			Row0: t.Col0, Col0: t.Row0,
			Rows: t.Cols, Cols: t.Rows,
			Kind: t.Kind, NNZ: t.NNZ,
		}
		if t.Kind == mat.DenseKind {
			nt.D = t.D.Transpose()
		} else {
			nt.Sp = t.Sp.Transpose()
		}
		nt.Home = numa.Node((nt.Row0 / a.BAtomic) % sockets)
		out.addTile(nt)
	}
	return out
}

// MatVec computes y = A·x over the tiles, parallelized across the pool's
// workers by tile. Tiles writing the same row range are disjoint in
// columns, so partial results are accumulated per task into a private
// buffer and merged — the classical tiled SpMV layout the paper's related
// work (Vuduc) studies.
func (a *ATMatrix) MatVec(x []float64, cfg Config) ([]float64, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("core: MatVec dimension mismatch: %d columns, %d vector entries", a.Cols, len(x))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	y := make([]float64, a.Rows)
	pool := sched.NewPool(cfg.Topology)
	pool.RowGrain = cfg.RowGrain
	// Group tiles by home so each team works node-locally; each task
	// accumulates into a disjoint row range? Tiles in one tile-row share
	// rows, so serialize per tile-row: build row-band tasks.
	bands := a.RowBands()
	queues := make([][]sched.Task, cfg.Topology.Sockets)
	for _, band := range bands {
		band := band
		tiles := a.tilesInRowBand(band)
		if len(tiles) == 0 {
			continue
		}
		home := cfg.Topology.HomeOfTileRow(band.Lo / cfg.BAtomic)
		queues[int(home)] = append(queues[int(home)], func(team *sched.Team) {
			team.ParallelRows(band.Len(), func(lo, hi, _ int) {
				for _, t := range tiles {
					tileMatVecRows(t, x, y, band.Lo+lo, band.Lo+hi)
				}
			})
		})
	}
	if _, err := pool.Run(queues); err != nil {
		return nil, err
	}
	return y, nil
}

// tileMatVecRows accumulates rows [r0, r1) (matrix coordinates) of one
// tile's contribution into y.
func tileMatVecRows(t *Tile, x, y []float64, r0, r1 int) {
	lo, hi := r0-t.Row0, r1-t.Row0
	if lo < 0 {
		lo = 0
	}
	if hi > t.Rows {
		hi = t.Rows
	}
	if t.Kind == mat.DenseKind {
		for r := lo; r < hi; r++ {
			row := t.D.RowSlice(r)
			var s float64
			for c, v := range row {
				s += v * x[t.Col0+c]
			}
			y[t.Row0+r] += s
		}
		return
	}
	for r := lo; r < hi; r++ {
		plo, phi := t.Sp.RowRange(r)
		var s float64
		for p := plo; p < phi; p++ {
			s += t.Sp.Val[p] * x[t.Col0+int(t.Sp.ColIdx[p])]
		}
		y[t.Row0+r] += s
	}
}

// Repartition rebuilds the AT MATRIX with the full quadtree partitioning —
// useful to compact a multiplication result (whose tiles follow the
// operand band grid) into the optimal adaptive layout before it enters
// further multiplications.
func (a *ATMatrix) Repartition(cfg Config) (*ATMatrix, *PartitionStats, error) {
	return Partition(a.ToCOO(), cfg)
}
