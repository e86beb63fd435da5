package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortAngles returns a new slice with the angles normalized to [0, 2π)
// and sorted ascending.
func sortAngles(angles []float64) []float64 {
	out := make([]float64, len(angles))
	for i, a := range angles {
		out[i] = NormalizeAngle(a)
	}
	sort.Float64s(out)
	return out
}

// bruteMinDepth samples the circle densely and at interval midpoints to
// approximate the minimum closed-arc coverage depth.
func bruteMinDepth(centers []float64, halfWidth float64) int {
	if len(centers) == 0 {
		return 0
	}
	depthAt := func(x float64) int {
		d := 0
		for _, c := range centers {
			if halfWidth >= math.Pi || AngularDistance(x, c) <= halfWidth {
				d++
			}
		}
		return d
	}
	// Candidate minima: midpoints between all pairs of arc endpoints plus
	// a dense sample.
	min := len(centers)
	var endpoints []float64
	for _, c := range centers {
		endpoints = append(endpoints, NormalizeAngle(c-halfWidth), NormalizeAngle(c+halfWidth))
	}
	sorted := sortAngles(endpoints)
	for i := range sorted {
		next := sorted[(i+1)%len(sorted)]
		gap := NormalizeAngle(next - sorted[i])
		if gap == 0 {
			gap = TwoPi
		}
		if d := depthAt(NormalizeAngle(sorted[i] + gap/2)); d < min {
			min = d
		}
	}
	for i := 0; i < 720; i++ {
		if d := depthAt(TwoPi * float64(i) / 720); d < min {
			min = d
		}
	}
	return min
}

func TestMinArcCoverageDepthEmpty(t *testing.T) {
	depth, witness := MinArcCoverageDepth(nil, 1)
	if depth != 0 || witness != 0 {
		t.Errorf("empty: depth=%d witness=%v", depth, witness)
	}
}

func TestMinArcCoverageDepthCases(t *testing.T) {
	tests := []struct {
		name      string
		centers   []float64
		halfWidth float64
		want      int
	}{
		{
			name:      "single narrow arc leaves zero",
			centers:   []float64{0},
			halfWidth: math.Pi / 4,
			want:      0,
		},
		{
			name:      "single full-circle arc",
			centers:   []float64{1},
			halfWidth: math.Pi,
			want:      1,
		},
		{
			name:      "square with theta exactly quarter covers once",
			centers:   []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2},
			halfWidth: math.Pi / 4,
			want:      1,
		},
		{
			name:      "square with tighter theta leaves gaps",
			centers:   []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2},
			halfWidth: math.Pi / 8,
			want:      0,
		},
		{
			name:      "eight cameras double-cover at quarter",
			centers:   []float64{0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi, 5 * math.Pi / 4, 3 * math.Pi / 2, 7 * math.Pi / 4},
			halfWidth: math.Pi / 4,
			want:      2,
		},
		{
			name:      "three full circles stack",
			centers:   []float64{0, 1, 2},
			halfWidth: math.Pi,
			want:      3,
		},
		{
			name:      "zero half width",
			centers:   []float64{0, 1},
			halfWidth: 0,
			want:      0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			depth, _ := MinArcCoverageDepth(tt.centers, tt.halfWidth)
			if depth != tt.want {
				t.Errorf("depth = %d, want %d", depth, tt.want)
			}
		})
	}
}

func TestMinArcCoverageDepthWitness(t *testing.T) {
	centers := []float64{0, math.Pi / 2, math.Pi}
	halfWidth := math.Pi / 8
	depth, witness := MinArcCoverageDepth(centers, halfWidth)
	if depth != 0 {
		t.Fatalf("depth = %d, want 0", depth)
	}
	// The witness must actually have the reported depth.
	got := 0
	for _, c := range centers {
		if AngularDistance(witness, c) <= halfWidth {
			got++
		}
	}
	if got != depth {
		t.Errorf("witness %v has depth %d, reported %d", witness, got, depth)
	}
}

func TestMinArcCoverageDepthMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(15)
		centers := make([]float64, n)
		for i := range centers {
			centers[i] = rng.Float64() * TwoPi
		}
		halfWidth := rng.Float64() * math.Pi
		got, witness := MinArcCoverageDepth(centers, halfWidth)
		want := bruteMinDepth(centers, halfWidth)
		if got != want {
			t.Fatalf("trial %d (n=%d, h=%v): depth %d, brute force %d",
				trial, n, halfWidth, got, want)
		}
		// Witness consistency.
		wd := 0
		for _, c := range centers {
			if halfWidth >= math.Pi || AngularDistance(witness, c) <= halfWidth {
				wd++
			}
		}
		if wd != got {
			t.Fatalf("trial %d: witness depth %d != reported %d", trial, wd, got)
		}
	}
}

// TestDepthConsistentWithMaxGap ties the two primitives together:
// min depth ≥ 1 ⇔ max circular gap ≤ 2·halfWidth.
func TestDepthConsistentWithMaxGap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		centers := make([]float64, n)
		for i := range centers {
			centers[i] = rng.Float64() * TwoPi
		}
		halfWidth := rng.Float64() * math.Pi
		depth, _ := MinArcCoverageDepth(centers, halfWidth)
		gap, _ := MaxCircularGap(centers)
		if (depth >= 1) != (gap <= 2*halfWidth) {
			t.Fatalf("trial %d: depth %d vs gap %v (2h=%v) disagree",
				trial, depth, gap, 2*halfWidth)
		}
	}
}

func TestNegativeHalfWidthClamps(t *testing.T) {
	depth, _ := MinArcCoverageDepth([]float64{1}, -0.5)
	if depth != 0 {
		t.Errorf("depth = %d, want 0", depth)
	}
}
