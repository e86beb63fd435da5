package core

import (
	"fullview/internal/geom"
)

// SurveyBatch diagnoses a whole point batch through the spatial index's
// cell-sorted batch gather and folds the reports into RegionStats. The
// per-point verdicts are bit-identical to a Report loop — the batch
// gather returns each point's viewed directions in exactly the order
// the point-at-a-time gather would, and each point's CSR sub-slice runs
// through the same report routine — but the spatial work is amortised:
// each occupied grid cell's candidate neighbourhood is walked once per
// batch instead of once per point. Like Report, SurveyBatch reuses
// internal scratch and must not be called concurrently on one Checker.
func (c *Checker) SurveyBatch(points []geom.Vec) RegionStats {
	m := c.m
	dirs, offs := m.index.AppendViewedDirectionsBatch(&m.batch, points)
	var stats RegionStats
	for i := range points {
		// Sub-slices are disjoint, so report sorting one in place never
		// disturbs another point's directions.
		stats.observe(pointReport(m.report(dirs[offs[i]:offs[i+1]])))
	}
	return stats
}

// EvaluateBatch diagnoses a whole point batch for every configured θ,
// calling fn(i, report) once per point in batch order. Each report is
// bit-identical to Evaluate(points[i]); the batch gather amortises the
// spatial walk. The report's PerTheta slice is reused across callbacks —
// fn must consume (or copy) it before returning.
func (m *MultiChecker) EvaluateBatch(points []geom.Vec, fn func(i int, rep MultiReport)) {
	dirs, offs := m.index.AppendViewedDirectionsBatch(&m.batch, points)
	for i := range points {
		fn(i, m.report(dirs[offs[i]:offs[i+1]]))
	}
}
