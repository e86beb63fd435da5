package core

import (
	"fullview/internal/geom"
)

// SurveyBatch diagnoses a whole point batch and folds the reports into
// RegionStats: one Report per point, in batch order. Like Report,
// SurveyBatch reuses internal scratch and must not be called
// concurrently on one Checker.
func (c *Checker) SurveyBatch(points []geom.Vec) RegionStats {
	var stats RegionStats
	for _, p := range points {
		stats.observe(c.Report(p))
	}
	return stats
}

// EvaluateBatch diagnoses a whole point batch for every configured θ,
// calling fn(i, Evaluate(points[i])) once per point in batch order. The
// report's PerTheta slice is reused across callbacks — fn must consume
// (or copy) it before returning.
func (m *MultiChecker) EvaluateBatch(points []geom.Vec, fn func(i int, rep MultiReport)) {
	for i, p := range points {
		fn(i, m.Evaluate(p))
	}
}
