package core

import (
	"encoding/json"

	"fullview/internal/geom"
)

// PointReport is the full coverage diagnosis of a single point.
type PointReport struct {
	// NumCovering is the number of cameras covering the point.
	NumCovering int
	// MaxGap is the widest circular gap between viewed directions of
	// covering cameras (2π when fewer than two cameras cover the point).
	MaxGap float64
	// FullView reports whether the point is full-view covered.
	FullView bool
	// Necessary reports whether the geometric necessary condition holds.
	Necessary bool
	// Sufficient reports whether the geometric sufficient condition holds.
	Sufficient bool
}

// Report diagnoses point p in one pass over its covering cameras.
func (c *Checker) Report(p geom.Vec) PointReport {
	return pointReport(c.m.Evaluate(p))
}

// pointReport is the one-θ reading of a MultiReport.
func pointReport(r MultiReport) PointReport {
	v := r.PerTheta[0]
	return PointReport{
		NumCovering: r.NumCovering,
		MaxGap:      r.MaxGap,
		FullView:    v.FullView,
		Necessary:   v.Necessary,
		Sufficient:  v.Sufficient,
	}
}

// RegionStats aggregates coverage over a set of sample points (normally
// the paper's dense grid, which stands in for the whole area).
type RegionStats struct {
	// Points is the number of sample points examined.
	Points int
	// FullView, Necessary, Sufficient count points passing each test.
	FullView   int
	Necessary  int
	Sufficient int
	// MinCovering / MeanCovering summarize k-coverage multiplicity.
	MinCovering  int
	MeanCovering float64
	// totalCovering carries the exact integer covering-count sum so that
	// Merge can recompute MeanCovering without floating-point drift —
	// merged stats are bit-identical to a sequential sweep.
	totalCovering int
}

// observe folds one point report into the aggregate.
func (s *RegionStats) observe(r PointReport) {
	if s.Points == 0 || r.NumCovering < s.MinCovering {
		s.MinCovering = r.NumCovering
	}
	s.Points++
	s.totalCovering += r.NumCovering
	if r.FullView {
		s.FullView++
	}
	if r.Necessary {
		s.Necessary++
	}
	if r.Sufficient {
		s.Sufficient++
	}
	s.MeanCovering = float64(s.totalCovering) / float64(s.Points)
}

// Merge combines two partial aggregates over disjoint point sets, as
// produced by surveying two halves of a region. Merging the chunk
// aggregates of a parallel sweep in chunk order reproduces the
// sequential sweep's statistics exactly, including MeanCovering (the
// integer covering-count sum is carried internally and re-divided).
func (s RegionStats) Merge(other RegionStats) RegionStats {
	if other.Points == 0 {
		return s
	}
	if s.Points == 0 {
		return other
	}
	if other.MinCovering < s.MinCovering {
		s.MinCovering = other.MinCovering
	}
	s.Points += other.Points
	s.FullView += other.FullView
	s.Necessary += other.Necessary
	s.Sufficient += other.Sufficient
	s.totalCovering += other.totalCovering
	s.MeanCovering = float64(s.totalCovering) / float64(s.Points)
	return s
}

// FullViewFraction returns the fraction of sample points that are
// full-view covered — by the paper's expectation argument (Section V),
// the empirical analogue of the probability that an arbitrary point is
// covered.
func (s RegionStats) FullViewFraction() float64 { return fraction(s.FullView, s.Points) }

// NecessaryFraction returns the fraction of points meeting the necessary
// condition.
func (s RegionStats) NecessaryFraction() float64 { return fraction(s.Necessary, s.Points) }

// SufficientFraction returns the fraction of points meeting the
// sufficient condition.
func (s RegionStats) SufficientFraction() float64 { return fraction(s.Sufficient, s.Points) }

// AllFullView reports whether every sample point is full-view covered —
// the event ("the dense grid is full-view covered") whose asymptotic
// probability Theorems 1 and 2 bound.
func (s RegionStats) AllFullView() bool { return s.FullView == s.Points }

// AllNecessary reports whether every point meets the necessary condition
// (the paper's event H_N).
func (s RegionStats) AllNecessary() bool { return s.Necessary == s.Points }

// AllSufficient reports whether every point meets the sufficient
// condition (the paper's event H_S).
func (s RegionStats) AllSufficient() bool { return s.Sufficient == s.Points }

func fraction(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// regionStatsJSON is the serialized form of RegionStats. The exact
// integer covering-count sum travels explicitly so that stats restored
// from a checkpoint journal merge bit-identically to never-serialized
// ones; MeanCovering is derived, not stored.
type regionStatsJSON struct {
	Points        int `json:"points"`
	FullView      int `json:"fullView"`
	Necessary     int `json:"necessary"`
	Sufficient    int `json:"sufficient"`
	MinCovering   int `json:"minCovering"`
	TotalCovering int `json:"totalCovering"`
}

// MarshalJSON implements json.Marshaler. All serialized fields are
// integers, so the round-trip is exact — a requirement of the
// checkpoint/resume guarantee that resumed experiment results are
// bit-identical to uninterrupted ones.
func (s RegionStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(regionStatsJSON{
		Points:        s.Points,
		FullView:      s.FullView,
		Necessary:     s.Necessary,
		Sufficient:    s.Sufficient,
		MinCovering:   s.MinCovering,
		TotalCovering: s.totalCovering,
	})
}

// UnmarshalJSON implements json.Unmarshaler; see MarshalJSON.
func (s *RegionStats) UnmarshalJSON(data []byte) error {
	var v regionStatsJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*s = RegionStats{
		Points:        v.Points,
		FullView:      v.FullView,
		Necessary:     v.Necessary,
		Sufficient:    v.Sufficient,
		MinCovering:   v.MinCovering,
		totalCovering: v.TotalCovering,
	}
	if v.Points > 0 {
		s.MeanCovering = float64(v.TotalCovering) / float64(v.Points)
	}
	return nil
}

// SurveyRegion evaluates every sample point and aggregates the results.
// It is the single-worker case of SurveyRegionParallel; both run
// through the internal/sweep engine and produce identical statistics.
func (c *Checker) SurveyRegion(points []geom.Vec) RegionStats {
	return c.SurveyRegionParallel(points, 1)
}

// FirstFullViewGap scans the sample points and returns the first point
// that is not full-view covered together with a witness unsafe facing
// direction. found is false when every point is covered.
func (c *Checker) FirstFullViewGap(points []geom.Vec) (p geom.Vec, unsafeDir float64, found bool) {
	for _, pt := range points {
		if dir, bad := c.UnsafeDirection(pt); bad {
			return pt, dir, true
		}
	}
	return geom.Vec{}, 0, false
}
