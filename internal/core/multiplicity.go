package core

import "fullview/internal/geom"

// FullViewMultiplicity returns the full-view coverage depth of point p:
// the minimum, over all facing directions d⃗, of the number of covering
// cameras whose viewed direction lies within θ of d⃗, together with a
// facing direction attaining the minimum.
//
// Multiplicity generalises Definition 1 the way k-coverage generalises
// 1-coverage: a point is full-view covered iff its multiplicity is ≥ 1,
// and it remains full-view covered after any f camera failures iff its
// multiplicity is ≥ f+1. The intro's motivation for k-coverage — fault
// tolerance when "sensors often fail due to unexpected events" — carries
// over to full-view coverage through this quantity.
func (c *Checker) FullViewMultiplicity(p geom.Vec) (depth int, weakestDir float64) {
	return geom.MinArcCoverageDepth(c.m.viewedDirections(p), c.Theta())
}

// SafeDirectionFraction returns the fraction of facing directions at p
// that are *safe* in the sense of Definition 1 (within θ of some
// covering camera's viewed direction). It is 1 exactly when p is
// full-view covered, and measures how close a partially covered point
// is to the guarantee.
func (c *Checker) SafeDirectionFraction(p geom.Vec) float64 {
	return geom.ArcUnionLength(c.m.viewedDirections(p), c.Theta()) / geom.TwoPi
}

// FaultTolerantFullView reports whether p stays full-view covered after
// the loss of any f cameras.
func (c *Checker) FaultTolerantFullView(p geom.Vec, f int) bool {
	if f < 0 {
		f = 0
	}
	depth, _ := c.FullViewMultiplicity(p)
	return depth >= f+1
}

// MultiplicityStats summarizes full-view multiplicity over sample
// points.
type MultiplicityStats struct {
	// Points is the number of sample points examined.
	Points int
	// Min is the lowest multiplicity seen (the region tolerates Min−1
	// arbitrary camera failures).
	Min int
	// Mean is the average multiplicity.
	Mean float64
	// Histogram counts points per multiplicity value, truncated at the
	// last non-zero bucket.
	Histogram []int
}

// SurveyMultiplicity computes multiplicity statistics over the sample
// points.
func (c *Checker) SurveyMultiplicity(points []geom.Vec) MultiplicityStats {
	stats := MultiplicityStats{Points: len(points)}
	total := 0
	for i, p := range points {
		depth, _ := c.FullViewMultiplicity(p)
		total += depth
		if i == 0 || depth < stats.Min {
			stats.Min = depth
		}
		for len(stats.Histogram) <= depth {
			stats.Histogram = append(stats.Histogram, 0)
		}
		stats.Histogram[depth]++
	}
	if len(points) > 0 {
		stats.Mean = float64(total) / float64(len(points))
	}
	return stats
}

// FaultTolerantFraction returns the fraction of surveyed points with
// multiplicity at least f+1.
func (s MultiplicityStats) FaultTolerantFraction(f int) float64 {
	if s.Points == 0 {
		return 0
	}
	if f < 0 {
		f = 0
	}
	count := 0
	for depth := f + 1; depth < len(s.Histogram); depth++ {
		count += s.Histogram[depth]
	}
	return float64(count) / float64(s.Points)
}
