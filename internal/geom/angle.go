// Package geom provides the planar geometry substrate used throughout the
// full-view coverage library: angles on the circle, vectors, the unit torus
// (the paper's boundary-free operational region), angular sectors, and
// circular gap analysis.
//
// All angles are in radians. Angles representing directions are normalized
// to the half-open interval [0, 2π).
package geom

import "math"

// TwoPi is the full circle in radians.
const TwoPi = 2 * math.Pi

// NormalizeAngle maps an arbitrary angle to the canonical range [0, 2π).
// NaN and ±Inf are returned unchanged.
func NormalizeAngle(a float64) float64 {
	if a > -TwoPi && a < TwoPi {
		// Fast path for the dominant case (atan2 outputs, differences of
		// normalized directions): |a| < 2π makes math.Mod(a, 2π) the
		// identity — the quotient truncates to zero — so the reduction
		// collapses to the two conditional fix-ups below, bit-identical
		// to the general path but without Mod's exponent-walking loop.
		// a = −2π exactly is excluded so its Mod image (−0.0) keeps its
		// sign; NaN fails both comparisons and takes the general path.
		if a < 0 {
			a += TwoPi
		}
		if a >= TwoPi {
			a -= TwoPi
		}
		return a
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return a
	}
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	// math.Mod can return TwoPi-epsilon values that round up; guard the
	// boundary so the result is strictly less than 2π.
	if a >= TwoPi {
		a -= TwoPi
	}
	return a
}

// AngularDistance returns the circular distance between two directions,
// the smallest non-negative rotation taking one onto the other.
// The result lies in [0, π].
func AngularDistance(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = TwoPi - d
	}
	return d
}

// CCWDelta returns the counter-clockwise rotation from b to a, in [0, 2π).
func CCWDelta(a, b float64) float64 {
	return NormalizeAngle(a - b)
}
