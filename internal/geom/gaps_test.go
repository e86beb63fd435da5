package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxCircularGapEmpty(t *testing.T) {
	gap, bisector := MaxCircularGap(nil)
	if gap != TwoPi {
		t.Errorf("gap = %v, want 2π", gap)
	}
	if bisector != 0 {
		t.Errorf("bisector = %v, want 0", bisector)
	}
}

func TestMaxCircularGapSingle(t *testing.T) {
	gap, bisector := MaxCircularGap([]float64{math.Pi / 2})
	if gap != TwoPi {
		t.Errorf("gap = %v, want 2π", gap)
	}
	if !almostEqual(bisector, 3*math.Pi/2, eps) {
		t.Errorf("bisector = %v, want 3π/2 (opposite the angle)", bisector)
	}
}

func TestMaxCircularGapCases(t *testing.T) {
	tests := []struct {
		name         string
		give         []float64
		wantGap      float64
		wantBisector float64
	}{
		{
			name:         "two opposite",
			give:         []float64{0, math.Pi},
			wantGap:      math.Pi,
			wantBisector: 3 * math.Pi / 2, // both gaps are π; ties resolve to the wrap gap [π, 2π)
		},
		{
			name:         "three quarters occupied",
			give:         []float64{0, math.Pi / 2, math.Pi},
			wantGap:      math.Pi,
			wantBisector: 3 * math.Pi / 2,
		},
		{
			name:         "cluster leaves big gap",
			give:         []float64{0.1, 0.2, 0.3},
			wantGap:      TwoPi - 0.2,
			wantBisector: NormalizeAngle(0.3 + (TwoPi-0.2)/2),
		},
		{
			name:    "even square",
			give:    []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2},
			wantGap: math.Pi / 2,
		},
		{
			name:    "duplicates collapse",
			give:    []float64{1, 1, 1, 1 + math.Pi},
			wantGap: math.Pi,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gap, bisector := MaxCircularGap(tt.give)
			if !almostEqual(gap, tt.wantGap, 1e-9) {
				t.Errorf("gap = %v, want %v", gap, tt.wantGap)
			}
			if tt.wantBisector != 0 && !almostEqual(AngularDistance(bisector, tt.wantBisector), 0, 1e-9) {
				t.Errorf("bisector = %v, want %v", bisector, tt.wantBisector)
			}
		})
	}
}

func TestMaxCircularGapDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	MaxCircularGap(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestMaxCircularGapBisectorIsInsideGap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		angles := make([]float64, n)
		for i := range angles {
			angles[i] = rng.Float64() * TwoPi
		}
		gap, bisector := MaxCircularGap(angles)
		// The bisector must be at least gap/2 away from every angle.
		for _, a := range angles {
			if d := AngularDistance(bisector, a); d < gap/2-1e-9 {
				t.Fatalf("trial %d: bisector %v within %v of angle %v (gap %v)",
					trial, bisector, d, a, gap)
			}
		}
	}
}

func TestMaxCircularGapSumProperty(t *testing.T) {
	// The maximum gap of n ≥ 2 angles is at least 2π/n (pigeonhole)
	// and at most 2π.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		angles := make([]float64, n)
		for i := range angles {
			angles[i] = rng.Float64() * TwoPi
		}
		gap, _ := MaxCircularGap(angles)
		return gap >= TwoPi/float64(n)-1e-9 && gap <= TwoPi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortAngles(t *testing.T) {
	got := sortAngles([]float64{-math.Pi / 2, 0, 3 * math.Pi})
	want := []float64{0, math.Pi, 3 * math.Pi / 2}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-9) {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// coversAllDirections reports whether every direction on the circle is
// within θ of one of the angles — the ∀-direction definition of a
// θ-cover — in the gap form the checker uses: MaxCircularGap ≤ 2θ.
func coversAllDirections(angles []float64, theta float64) bool {
	if len(angles) == 0 {
		return false
	}
	gap, _ := MaxCircularGap(angles)
	return gap <= 2*theta
}

// TestCoversAllDirections pins the gap form against hand-checked
// θ-covers.
func TestCoversAllDirections(t *testing.T) {
	square := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	tests := []struct {
		name   string
		angles []float64
		theta  float64
		want   bool
	}{
		{name: "square with theta quarter", angles: square, theta: math.Pi / 4, want: true},
		{name: "square with small theta", angles: square, theta: math.Pi / 8, want: false},
		{name: "empty never covers", angles: nil, theta: math.Pi, want: false},
		{name: "single with theta pi", angles: []float64{1}, theta: math.Pi, want: true},
		{name: "single with theta below pi", angles: []float64{1}, theta: math.Pi - 0.01, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := coversAllDirections(tt.angles, tt.theta); got != tt.want {
				t.Errorf("coversAllDirections(%v, %v) = %v, want %v",
					tt.angles, tt.theta, got, tt.want)
			}
		})
	}
}
