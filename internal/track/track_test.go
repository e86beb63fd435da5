package track

import (
	"errors"
	"math"
	"testing"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

func TestNewTrajectoryValidation(t *testing.T) {
	if _, err := NewTrajectory(geom.V(0, 0)); !errors.Is(err, ErrTooFewWaypoints) {
		t.Errorf("error = %v, want ErrTooFewWaypoints", err)
	}
	if _, err := NewTrajectory(geom.V(0.5, 0.5), geom.V(0.5, 0.5)); !errors.Is(err, ErrZeroLength) {
		t.Errorf("error = %v, want ErrZeroLength", err)
	}
	if _, err := NewTrajectory(geom.V(0, 0), geom.V(1, 1)); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
}

func TestTrajectoryLength(t *testing.T) {
	tr, err := NewTrajectory(geom.V(0, 0), geom.V(0.3, 0), geom.V(0.3, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Length(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Length = %v, want 0.7", got)
	}
}

func TestSamplesFacingFollowsMotion(t *testing.T) {
	// East leg then north leg: facing must flip from 0 to π/2 at the turn.
	tr, err := NewTrajectory(geom.V(0.1, 0.1), geom.V(0.5, 0.1), geom.V(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := tr.Samples(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		switch {
		case s.Dist < 0.4-1e-9:
			if geom.AngularDistance(s.Facing, 0) > 1e-9 {
				t.Fatalf("east leg facing = %v at dist %v", s.Facing, s.Dist)
			}
		case s.Dist > 0.4+1e-9:
			if geom.AngularDistance(s.Facing, math.Pi/2) > 1e-9 {
				t.Fatalf("north leg facing = %v at dist %v", s.Facing, s.Dist)
			}
		}
	}
	lastSample := samples[len(samples)-1]
	if math.Abs(lastSample.Dist-0.8) > 1e-9 {
		t.Errorf("final Dist = %v, want 0.8", lastSample.Dist)
	}
}

func TestSamplesStepValidation(t *testing.T) {
	tr, err := NewTrajectory(geom.V(0, 0), geom.V(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []float64{0, -0.1, math.NaN()} {
		if _, err := tr.Samples(step); !errors.Is(err, ErrBadStep) {
			t.Errorf("step %v: error = %v, want ErrBadStep", step, err)
		}
	}
}

func TestSamplesSkipZeroLengthSegments(t *testing.T) {
	tr, err := NewTrajectory(geom.V(0, 0), geom.V(0, 0), geom.V(0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := tr.Samples(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Pos == samples[i-1].Pos {
			t.Fatalf("duplicate consecutive sample at %d", i)
		}
	}
}

func checkerWith(t *testing.T, cams []sensor.Camera, theta float64) *core.Checker {
	t.Helper()
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewChecker(net, theta)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunHeadOnCameraCaptures(t *testing.T) {
	// Target walks east along y=0.5; a camera ahead of it looking west
	// sees it frontally the whole way (within its range).
	cam := sensor.Camera{
		Pos:      geom.V(0.6, 0.5),
		Orient:   math.Pi,
		Radius:   0.3,
		Aperture: math.Pi / 2,
	}
	checker := checkerWith(t, []sensor.Camera{cam}, math.Pi/4)
	tr, err := NewTrajectory(geom.V(0.35, 0.5), geom.V(0.55, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(checker, tr, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if report.CapturedFraction != 1 {
		t.Errorf("head-on capture fraction = %v, want 1", report.CapturedFraction)
	}
	if report.LongestGap != 0 {
		t.Errorf("LongestGap = %v, want 0", report.LongestGap)
	}
	for _, c := range report.Captures {
		if c.BestAngle > 1e-9 {
			t.Errorf("BestAngle = %v at %v, want ≈ 0 (camera dead ahead)", c.BestAngle, c.Pos)
		}
	}
}

func TestRunCameraBehindDoesNotCapture(t *testing.T) {
	// Same camera, but the target walks *away* from it: the camera sees
	// only the target's back.
	cam := sensor.Camera{
		Pos:      geom.V(0.3, 0.5),
		Orient:   0,
		Radius:   0.3,
		Aperture: math.Pi / 2,
	}
	checker := checkerWith(t, []sensor.Camera{cam}, math.Pi/4)
	tr, err := NewTrajectory(geom.V(0.35, 0.5), geom.V(0.55, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(checker, tr, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if report.CapturedFraction != 0 {
		t.Errorf("behind-only capture fraction = %v, want 0", report.CapturedFraction)
	}
	if math.Abs(report.LongestGap-tr.Length()) > 1e-9 {
		t.Errorf("LongestGap = %v, want full length %v", report.LongestGap, tr.Length())
	}
}

func TestRunGapAccounting(t *testing.T) {
	// Frontal camera covering only the middle third of an eastward walk.
	cam := sensor.Camera{
		Pos:      geom.V(0.5, 0.5),
		Orient:   math.Pi,
		Radius:   0.1,
		Aperture: math.Pi,
	}
	checker := checkerWith(t, []sensor.Camera{cam}, math.Pi/4)
	tr, err := NewTrajectory(geom.V(0.1, 0.5), geom.V(0.49, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(checker, tr, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if report.CapturedFraction <= 0 || report.CapturedFraction >= 1 {
		t.Fatalf("capture fraction = %v, want partial", report.CapturedFraction)
	}
	// The uncovered prefix is [0.1, 0.4) → gap ≈ 0.3.
	if math.Abs(report.LongestGap-0.3) > 0.05 {
		t.Errorf("LongestGap = %v, want ≈ 0.3", report.LongestGap)
	}
}

// TestFullViewRegionCapturesEveryTrajectory is the paper's core promise
// in motion: inside a full-view covered region, every trajectory gets a
// frontal capture at every sample, whatever direction it moves.
func TestFullViewRegionCapturesEveryTrajectory(t *testing.T) {
	profile, err := sensor.Homogeneous(0.3, 2*math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 3000, rng.New(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	theta := math.Pi / 2
	checker, err := core.NewChecker(net, theta)
	if err != nil {
		t.Fatal(err)
	}
	// Confirm the region really is fully covered first.
	grid, err := deploy.GridPoints(geom.UnitTorus, 20)
	if err != nil {
		t.Fatal(err)
	}
	if stats := checker.SurveyRegion(grid); !stats.AllFullView() {
		t.Skip("random network did not fully cover; cannot exercise the guarantee")
	}
	r := rng.New(4, 0)
	for trial := 0; trial < 10; trial++ {
		tr, err := NewTrajectory(
			geom.V(r.Float64(), r.Float64()),
			geom.V(r.Float64(), r.Float64()),
			geom.V(r.Float64(), r.Float64()),
		)
		if err != nil {
			continue // coincident random points; astronomically rare
		}
		report, err := Run(checker, tr, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if report.CapturedFraction != 1 {
			t.Errorf("trial %d: captured %.3f of a trajectory inside a full-view region",
				trial, report.CapturedFraction)
		}
	}
}

// TestRunMutatedViewMatchesFreshIndex runs the same trajectories over a
// checker on a View of a churned MutableIndex (live overlay) and over a
// checker on a fresh index of the same live camera list: every capture,
// BestAngle bits included, and the gap and fraction summaries must be
// identical.
func TestRunMutatedViewMatchesFreshIndex(t *testing.T) {
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.06, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.15, Aperture: math.Pi},
	)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 300, rng.New(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := spatial.NewMutableIndex(net, spatial.MutableOptions{RebuildFraction: -1})
	if _, err := m.Remove([]int{3, 50, 121, 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reaim([]spatial.ReaimOp{{Index: 0, Orient: 1.3}, {Index: 77, Orient: -2.9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add([]sensor.Camera{
		{Pos: geom.V(0.98, 0.2), Orient: math.Pi, Radius: 0.2, Aperture: math.Pi},
		{Pos: geom.V(0.4, 0.61), Orient: -1.2, Radius: 0.1, Aperture: math.Pi / 3},
	}); err != nil {
		t.Fatal(err)
	}
	if m.OverlaySize() == 0 {
		t.Fatal("mutations left no overlay; test would not exercise the overlay path")
	}
	live, err := core.NewCheckerFromSource(m.Snapshot(), math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Network()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewChecker(final, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9, 0)
	captured, samples := 0, 0
	for trial := 0; trial < 8; trial++ {
		// Waypoints range past [0, 1) so paths cross the torus seam.
		tr, err := NewTrajectory(
			geom.V(r.Float64()*1.4-0.2, r.Float64()*1.4-0.2),
			geom.V(r.Float64()*1.4-0.2, r.Float64()*1.4-0.2),
			geom.V(r.Float64()*1.4-0.2, r.Float64()*1.4-0.2),
		)
		if err != nil {
			continue // coincident random points; astronomically rare
		}
		got, err := Run(live, tr, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(fresh, tr, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Captures) != len(want.Captures) {
			t.Fatalf("trial %d: %d captures, fresh %d", trial, len(got.Captures), len(want.Captures))
		}
		for i := range want.Captures {
			g, w := got.Captures[i], want.Captures[i]
			if g != w || math.Float64bits(g.BestAngle) != math.Float64bits(w.BestAngle) {
				t.Fatalf("trial %d sample %d: %+v, fresh %+v", trial, i, g, w)
			}
			if g.Captured {
				captured++
			}
			samples++
		}
		if got.LongestGap != want.LongestGap || got.CapturedFraction != want.CapturedFraction {
			t.Fatalf("trial %d: gap %v fraction %v, fresh gap %v fraction %v",
				trial, got.LongestGap, got.CapturedFraction, want.LongestGap, want.CapturedFraction)
		}
	}
	if captured == 0 || captured == samples {
		t.Fatalf("%d of %d samples captured; want a mix so both verdicts are compared", captured, samples)
	}
}
