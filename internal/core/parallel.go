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
// spatial index and evaluates sweep.BatchSize points per SurveyBatch.
// Dense grids survey faster through SurveyGridContext.
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

// gridBlockPoints is the least number of grid points a grid survey
// rasters per block: blocks are ⌈gridBlockPoints/k⌉ whole rows, the unit
// of cancellation polling.
const gridBlockPoints = 8 * sweep.BatchSize

// SurveyGridContext surveys rows [rowLo, rowHi) of the k×k grid of
// deploy.GridPoints at every configured θ in one sweep, and returns
// one RegionStats per (θ slot, row), slot-major: stats[slot*rows+row].
// Workers (GOMAXPROCS when workers ≤ 0) each take a Clone and a
// contiguous share of the rows, and gather whole row blocks of at least
// gridBlockPoints points through the index's camera-major raster
// (spatial.Source.AppendGridDirections), once for every θ. A point's
// report depends only on the multiset of its directions, so every entry
// is bit-identical to a one-θ Checker.SurveyRegion of that row's
// points, at any worker count.
//
// It refuses k ≤ 0 and a row range outside [0, k). A cancelled context
// aborts the sweep within one row block per worker and returns
// ctx.Err() with nil statistics.
func (m *MultiChecker) SurveyGridContext(ctx context.Context, k, rowLo, rowHi, workers int) ([]RegionStats, error) {
	if k <= 0 || rowLo < 0 || rowLo > rowHi || rowHi > k {
		return nil, fmt.Errorf("core: rows [%d, %d) are not a row range of a %d×%d grid", rowLo, rowHi, k, k)
	}
	rows := rowHi - rowLo
	cells := len(m.thetas) * rows
	stats, err := sweep.RunRanges(ctx, rows, (gridBlockPoints+k-1)/k, workers,
		func() (*MultiChecker, error) { return m.Clone(), nil },
		func(worker *MultiChecker, acc []RegionStats, lo, hi int) []RegionStats {
			if acc == nil {
				acc = make([]RegionStats, cells)
			}
			dirs, offs := worker.index.AppendGridDirections(&worker.batch, k, rowLo+lo, rowLo+hi)
			q := 0
			for row := lo; row < hi; row++ {
				for range k {
					rep := worker.report(dirs[offs[q]:offs[q+1]])
					q++
					for slot, v := range rep.PerTheta {
						acc[slot*rows+row].observe(PointReport{
							NumCovering: rep.NumCovering,
							FullView:    v.FullView,
							Necessary:   v.Necessary,
							Sufficient:  v.Sufficient,
						})
					}
				}
			}
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

// SurveyGridContext is MultiChecker.SurveyGridContext at the Checker's
// one θ, folded over the rows in row order: the statistics of rows
// [rowLo, rowHi) of the k×k grid, bit-identical to SurveyRegion over
// the same points.
func (c *Checker) SurveyGridContext(ctx context.Context, k, rowLo, rowHi, workers int) (RegionStats, error) {
	rows, err := c.m.SurveyGridContext(ctx, k, rowLo, rowHi, workers)
	var stats RegionStats
	for _, row := range rows {
		stats = stats.Merge(row)
	}
	return stats, err
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
