package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		name string
		give float64
		want float64
	}{
		{name: "zero", give: 0, want: 0},
		{name: "in range", give: 1.5, want: 1.5},
		{name: "two pi", give: TwoPi, want: 0},
		{name: "negative quarter", give: -math.Pi / 2, want: 3 * math.Pi / 2},
		{name: "negative full", give: -TwoPi, want: 0},
		{name: "large positive", give: 5 * TwoPi, want: 0},
		{name: "large negative offset", give: -5*TwoPi + 1, want: 1},
		{name: "just below two pi", give: TwoPi - 1e-15, want: TwoPi - 1e-15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NormalizeAngle(tt.give)
			if !almostEqual(got, tt.want, eps) {
				t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		got := NormalizeAngle(a)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeAngleNonFinite(t *testing.T) {
	if !math.IsNaN(NormalizeAngle(math.NaN())) {
		t.Error("NormalizeAngle(NaN) should be NaN")
	}
	if !math.IsInf(NormalizeAngle(math.Inf(1)), 1) {
		t.Error("NormalizeAngle(+Inf) should be +Inf")
	}
}

func TestAngularDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{name: "identical", a: 1, b: 1, want: 0},
		{name: "quarter", a: 0, b: math.Pi / 2, want: math.Pi / 2},
		{name: "opposite", a: 0, b: math.Pi, want: math.Pi},
		{name: "wrap short way", a: 0.1, b: TwoPi - 0.1, want: 0.2},
		{name: "unnormalized inputs", a: -math.Pi / 2, b: math.Pi / 2, want: math.Pi},
		{name: "three quarters", a: 0, b: 3 * math.Pi / 2, want: math.Pi / 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := AngularDistance(tt.a, tt.b)
			if !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("AngularDistance(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestAngularDistanceProperties(t *testing.T) {
	symmetric := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return almostEqual(AngularDistance(a, b), AngularDistance(b, a), 1e-9)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	bounded := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		d := AngularDistance(a, b)
		return d >= 0 && d <= math.Pi+eps
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("bounds: %v", err)
	}
}

// angleDiff returns the signed shortest rotation from b to a, in
// (-π, π]: the oracle AngularDistance is checked against.
func angleDiff(a, b float64) float64 {
	d := NormalizeAngle(a - b)
	if d > math.Pi {
		d -= TwoPi
	}
	return d
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{name: "zero", a: 1, b: 1, want: 0},
		{name: "plus quarter", a: math.Pi / 2, b: 0, want: math.Pi / 2},
		{name: "minus quarter", a: 0, b: math.Pi / 2, want: -math.Pi / 2},
		{name: "opposite is plus pi", a: math.Pi, b: 0, want: math.Pi},
		{name: "wrap", a: 0.1, b: TwoPi - 0.1, want: 0.2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := angleDiff(tt.a, tt.b)
			if !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("angleDiff(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestAngleDiffMagnitudeMatchesDistance(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e9 || math.Abs(b) > 1e9 {
			return true
		}
		return almostEqual(math.Abs(angleDiff(a, b)), AngularDistance(a, b), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCCWDelta(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{name: "same", a: 1, b: 1, want: 0},
		{name: "forward quarter", a: math.Pi / 2, b: 0, want: math.Pi / 2},
		{name: "backward quarter goes long way", a: 0, b: math.Pi / 2, want: 3 * math.Pi / 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CCWDelta(tt.a, tt.b)
			if !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("CCWDelta(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}
