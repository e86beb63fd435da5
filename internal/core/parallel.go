package core

import (
	"context"
	"fmt"

	"fullview/internal/geom"
	"fullview/internal/sweep"
)

// SurveyRegionContext evaluates the sample points through the shared
// internal/sweep engine with the given number of workers (GOMAXPROCS
// when workers ≤ 0) and aggregates exactly like SurveyRegion: results
// are bit-identical to the sequential sweep at any worker count. Each
// worker gets its own Clone of the Checker over the shared immutable
// spatial index and rides the cell-sorted batch kernel (SurveyBatch),
// so every single-θ survey of the experiment grids amortises the
// spatial gather across sweep.BatchSize points. The server's /survey and
// jobs survey grid rows at every θ at once (SurveyRowsContext).
//
// A cancelled context aborts the sweep promptly and returns ctx.Err()
// with zero statistics.
func (c *Checker) SurveyRegionContext(ctx context.Context, points []geom.Vec, workers int) (RegionStats, error) {
	return sweep.RunBatch(ctx, points, workers,
		func() (*Checker, error) { return c.Clone(), nil },
		func(worker *Checker, acc RegionStats, _ int, pts []geom.Vec) RegionStats {
			return acc.Merge(worker.SurveyBatch(pts))
		},
		RegionStats.Merge,
	)
}

// SurveyRowsContext surveys a block of consecutive grid rows at every
// configured θ in one sweep: points holds len(points)/rowLen rows of
// rowLen points each, and the result has one RegionStats per (θ slot,
// row), slot-major — stats[slot*rows+row]. Each point is gathered once
// for all θ through EvaluateBatch on a per-worker Clone, and the chunk
// partials merge element-wise in chunk order, so every entry is
// bit-identical to a one-θ Checker.SurveyRegion of that row alone, at
// any worker count.
//
// A cancelled context aborts the sweep promptly (within one
// sweep.BatchSize batch per worker) and returns ctx.Err() with nil
// statistics.
func (m *MultiChecker) SurveyRowsContext(ctx context.Context, points []geom.Vec, rowLen, workers int) ([]RegionStats, error) {
	if rowLen <= 0 || len(points)%rowLen != 0 {
		return nil, fmt.Errorf("core: %d points do not split into rows of %d", len(points), rowLen)
	}
	rows := len(points) / rowLen
	cells := len(m.thetas) * rows
	stats, err := sweep.RunBatch(ctx, points, workers,
		func() (*MultiChecker, error) { return m.Clone(), nil },
		func(worker *MultiChecker, acc []RegionStats, lo int, pts []geom.Vec) []RegionStats {
			if acc == nil {
				acc = make([]RegionStats, cells)
			}
			worker.EvaluateBatch(pts, func(i int, rep MultiReport) {
				row := (lo + i) / rowLen
				for slot, v := range rep.PerTheta {
					acc[slot*rows+row].observe(PointReport{
						NumCovering: rep.NumCovering,
						FullView:    v.FullView,
						Necessary:   v.Necessary,
						Sufficient:  v.Sufficient,
					})
				}
			})
			return acc
		},
		func(dst, src []RegionStats) []RegionStats {
			for i := range dst {
				dst[i] = dst[i].Merge(src[i])
			}
			return dst
		},
	)
	if err != nil {
		return nil, err
	}
	if stats == nil {
		stats = make([]RegionStats, cells)
	}
	return stats, nil
}

// SurveyRegionParallel is SurveyRegionContext without cancellation: it
// evaluates the sample points with the given number of workers
// (GOMAXPROCS when workers ≤ 0) and returns statistics identical to
// SurveyRegion.
func (c *Checker) SurveyRegionParallel(points []geom.Vec, workers int) RegionStats {
	stats, err := c.SurveyRegionContext(context.Background(), points, workers)
	if err != nil {
		// Unreachable: the background context never cancels and the
		// worker factory never fails.
		panic(err)
	}
	return stats
}
