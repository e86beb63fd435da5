package geom

import (
	"slices"
	"sort"
)

// MaxCircularGap returns the widest angular gap between consecutive
// directions when the given angles are placed on the circle, together
// with the bisector direction of that gap.
//
// This is the primitive behind the exact full-view coverage test: a point
// whose covering sensors sit at viewed directions angles is full-view
// covered with effective angle θ iff MaxCircularGap(angles) ≤ 2θ — the
// bisector of a wider gap is an unsafe facing direction (paper, Section
// III-A).
//
// For an empty input the gap is the whole circle (2π) with bisector 0.
// For a single direction a the gap is 2π with bisector opposite a.
// The input slice is not modified.
func MaxCircularGap(angles []float64) (gap, bisector float64) {
	switch len(angles) {
	case 0:
		return TwoPi, 0
	case 1:
		return TwoPi, NormalizeAngle(angles[0] + TwoPi/2)
	}
	sorted := make([]float64, len(angles))
	for i, a := range angles {
		sorted[i] = NormalizeAngle(a)
	}
	sort.Float64s(sorted)
	return gapScanSorted(sorted)
}

// MaxCircularGapInPlace is MaxCircularGap without the defensive copy: it
// normalizes and sorts angles in place and allocates nothing, making it
// the right primitive for per-point hot loops that own a reusable
// direction buffer. Results are bit-identical to MaxCircularGap for
// finite inputs; angles must not contain NaN or ±Inf (unlike
// MaxCircularGap, whose sort tolerates them).
func MaxCircularGapInPlace(angles []float64) (gap, bisector float64) {
	switch len(angles) {
	case 0:
		return TwoPi, 0
	case 1:
		return TwoPi, NormalizeAngle(angles[0] + TwoPi/2)
	}
	for i, a := range angles {
		// The common case — atan2 output in (−π, π] — normalizes with one
		// branch and one add; math.Mod is the identity on (−2π, 2π), so
		// this matches NormalizeAngle bit for bit.
		if a >= 0 {
			if a < TwoPi {
				continue
			}
			angles[i] = NormalizeAngle(a)
			continue
		}
		if a > -TwoPi {
			a += TwoPi
			if a >= TwoPi { // −ε + 2π can round up to exactly 2π
				a -= TwoPi
			}
			angles[i] = a
			continue
		}
		angles[i] = NormalizeAngle(a)
	}
	slices.Sort(angles)
	return gapScanSorted(angles)
}

// gapScanSorted finds the widest gap of at least two normalized, sorted
// angles, starting from the wrap-around gap (last angle back to the
// first).
func gapScanSorted(sorted []float64) (gap, bisector float64) {
	gapStart := sorted[len(sorted)-1]
	gap = sorted[0] + TwoPi - sorted[len(sorted)-1]
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > gap {
			gap = g
			gapStart = sorted[i-1]
		}
	}
	return gap, NormalizeAngle(gapStart + gap/2)
}
