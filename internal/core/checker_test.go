package core

import (
	"errors"
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// camerasAt builds cameras whose viewed directions from point p are
// exactly the given angles: each camera sits at distance 0.1 from p in
// direction β, oriented back toward p, with a generous sector.
func camerasAt(p geom.Vec, viewedDirs ...float64) []sensor.Camera {
	cams := make([]sensor.Camera, len(viewedDirs))
	for i, beta := range viewedDirs {
		pos := geom.UnitTorus.Translate(p, geom.FromPolar(0.1, beta))
		cams[i] = sensor.Camera{
			Pos:      pos,
			Orient:   geom.NormalizeAngle(beta + math.Pi),
			Radius:   0.2,
			Aperture: math.Pi / 2,
		}
	}
	return cams
}

func checkerFor(t *testing.T, theta float64, cams []sensor.Camera) *Checker {
	t.Helper()
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(net, theta)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCheckerValidatesTheta(t *testing.T) {
	net, err := sensor.NewNetwork(geom.UnitTorus, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0, -0.1, math.Pi + 0.01, math.NaN()} {
		if _, err := NewChecker(net, theta); !errors.Is(err, ErrBadTheta) {
			t.Errorf("theta %v: error = %v, want ErrBadTheta", theta, err)
		}
	}
	if c, err := NewChecker(net, math.Pi); err != nil || c.Theta() != math.Pi {
		t.Errorf("theta π should be accepted: %v", err)
	}
}

// TestTinyThetaRefusedBeforeAllocating pins the sector-count cap: a θ
// whose θ-partition would exceed MaxSectors is an ErrBadTheta, refused
// by arithmetic — 1e-10·π would otherwise ask for a 160 GB partition
// and kill the process — while the smallest accepted θ still builds.
func TestTinyThetaRefusedBeforeAllocating(t *testing.T) {
	net, err := sensor.NewNetwork(geom.UnitTorus, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := spatial.NewIndex(net)
	for _, theta := range []float64{1e-10 * math.Pi, 5e-324, math.Nextafter(2*math.Pi/MaxSectors, 0) / 2} {
		if _, err := NewMultiCheckerFromSource(ix, []float64{0.25 * math.Pi, theta}); !errors.Is(err, ErrBadTheta) {
			t.Errorf("theta %v: error = %v, want ErrBadTheta", theta, err)
		}
		if err := CheckTheta(theta); !errors.Is(err, ErrBadTheta) {
			t.Errorf("CheckTheta(%v) = %v, want ErrBadTheta", theta, err)
		}
	}
	smallest := 2 * math.Pi / MaxSectors
	m, err := NewMultiCheckerFromSource(ix, []float64{smallest})
	if err != nil {
		t.Fatalf("theta 2π/MaxSectors refused: %v", err)
	}
	if got := len(m.occs[0].sufficient.sectors); got > MaxSectors {
		t.Errorf("theta 2π/MaxSectors built %d sectors, cap %d", got, MaxSectors)
	}
}

func TestFullViewCoveredSquareOfCameras(t *testing.T) {
	p := geom.V(0.5, 0.5)
	// Four cameras at 0, π/2, π, 3π/2: gaps of π/2 each.
	square := camerasAt(p, 0, math.Pi/2, math.Pi, 3*math.Pi/2)

	tests := []struct {
		name  string
		theta float64
		want  bool
	}{
		{name: "theta quarter pi covers", theta: math.Pi / 4, want: true},
		{name: "theta slightly below quarter fails", theta: math.Pi/4 - 0.01, want: false},
		{name: "theta pi covers", theta: math.Pi, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := checkerFor(t, tt.theta, square)
			if got := c.FullViewCovered(p); got != tt.want {
				t.Errorf("FullViewCovered = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFullViewCoveredNoCameras(t *testing.T) {
	c := checkerFor(t, math.Pi, nil)
	if c.FullViewCovered(geom.V(0.5, 0.5)) {
		t.Error("empty network cannot full-view cover anything, even at θ = π")
	}
}

func TestFullViewThetaPiEquals1Coverage(t *testing.T) {
	p := geom.V(0.5, 0.5)
	c := checkerFor(t, math.Pi, camerasAt(p, 1.0))
	// Section VII-A: at θ = π full-view coverage degenerates to
	// 1-coverage — a single covering camera suffices.
	if !c.FullViewCovered(p) {
		t.Error("one covering camera at θ = π should full-view cover")
	}
	if !c.MeetsNecessary(p) {
		t.Error("necessary condition should hold (single 2π sector)")
	}
}

func TestUnsafeDirection(t *testing.T) {
	p := geom.V(0.5, 0.5)
	// Cameras only on the east side: facing west is unsafe.
	c := checkerFor(t, math.Pi/4, camerasAt(p, -0.3, 0, 0.3))
	dir, bad := c.UnsafeDirection(p)
	if !bad {
		t.Fatal("point should not be full-view covered")
	}
	if geom.AngularDistance(dir, math.Pi) > 0.35 {
		t.Errorf("unsafe direction %v should point roughly west (π)", dir)
	}
	// Verify the witness: no covering camera within θ of it.
	net, err := sensor.NewNetwork(geom.UnitTorus, camerasAt(p, -0.3, 0, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range net.ViewedDirections(p) {
		if geom.AngularDistance(dir, beta) <= c.Theta() {
			t.Errorf("witness direction %v is within θ of camera at %v", dir, beta)
		}
	}

	covered := checkerFor(t, math.Pi/4, camerasAt(p, 0, math.Pi/2, math.Pi, 3*math.Pi/2))
	if _, bad := covered.UnsafeDirection(p); bad {
		t.Error("covered point should have no unsafe direction")
	}
}

func TestMeetsNecessaryAndSufficient(t *testing.T) {
	p := geom.V(0.5, 0.5)
	theta := math.Pi / 4 // necessary: 4 sectors of π/2; sufficient: 8 sectors of π/4.

	tests := []struct {
		name           string
		dirs           []float64
		wantNecessary  bool
		wantSufficient bool
	}{
		{
			name:           "one per quadrant meets necessary only",
			dirs:           []float64{0.1, math.Pi/2 + 0.1, math.Pi + 0.1, 3*math.Pi/2 + 0.1},
			wantNecessary:  true,
			wantSufficient: false,
		},
		{
			name: "one per octant meets both",
			dirs: []float64{
				0.1, math.Pi/4 + 0.1, math.Pi/2 + 0.1, 3*math.Pi/4 + 0.1,
				math.Pi + 0.1, 5*math.Pi/4 + 0.1, 3*math.Pi/2 + 0.1, 7*math.Pi/4 + 0.1,
			},
			wantNecessary:  true,
			wantSufficient: true,
		},
		{
			name:           "empty quadrant fails necessary",
			dirs:           []float64{0.1, math.Pi/2 + 0.1, math.Pi + 0.1},
			wantNecessary:  false,
			wantSufficient: false,
		},
		{
			name:           "no cameras",
			dirs:           nil,
			wantNecessary:  false,
			wantSufficient: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := checkerFor(t, theta, camerasAt(p, tt.dirs...))
			if got := c.MeetsNecessary(p); got != tt.wantNecessary {
				t.Errorf("MeetsNecessary = %v, want %v", got, tt.wantNecessary)
			}
			if got := c.MeetsSufficient(p); got != tt.wantSufficient {
				t.Errorf("MeetsSufficient = %v, want %v", got, tt.wantSufficient)
			}
		})
	}
}

func TestNecessaryButNotFullView(t *testing.T) {
	// Section VI-C / Figure 9 (left): a point can satisfy the anchored
	// necessary condition yet fail full-view coverage when two adjacent
	// sensors inside their sectors are more than 2θ apart.
	p := geom.V(0.5, 0.5)
	theta := math.Pi / 4
	// One camera near the *end* of each 2θ quadrant sector: gaps between
	// consecutive cameras stay π/2, except engineered: put first camera
	// early in sector 1 and the second late in sector 2.
	dirs := []float64{
		0.05,              // sector [0, π/2]
		math.Pi - 0.05,    // sector [π/2, π], near its end
		math.Pi + 0.1,     // sector [π, 3π/2]
		3*math.Pi/2 + 0.1, // sector [3π/2, 2π]
	}
	c := checkerFor(t, theta, camerasAt(p, dirs...))
	if !c.MeetsNecessary(p) {
		t.Fatal("construction should meet the necessary condition")
	}
	// Gap between 0.05 and π-0.05 is π-0.1 > 2θ = π/2.
	if c.FullViewCovered(p) {
		t.Error("point should not be full-view covered: gap exceeds 2θ")
	}
}

func TestKCoverage(t *testing.T) {
	p := geom.V(0.5, 0.5)
	c := checkerFor(t, math.Pi/4, camerasAt(p, 0, 1, 2))
	if got := c.CoverageCount(p); got != 3 {
		t.Fatalf("CoverageCount = %d, want 3", got)
	}
	for k, want := range map[int]bool{0: true, 1: true, 3: true, 4: false} {
		if got := c.KCovered(p, k); got != want {
			t.Errorf("KCovered(%d) = %v, want %v", k, got, want)
		}
	}
	// A far-away point is covered by nobody.
	far := geom.V(0.5, 0.9)
	if c.KCovered(far, 1) {
		t.Error("far point should not be 1-covered")
	}
	if !c.KCovered(far, 0) {
		t.Error("0-coverage is vacuously true")
	}
}

func TestReportConsistency(t *testing.T) {
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.2, Aperture: math.Pi},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.3, Aperture: math.Pi / 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 300, rng.New(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(net, math.Pi/3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(22, 0)
	for trial := 0; trial < 300; trial++ {
		p := geom.V(r.Float64(), r.Float64())
		rep := c.Report(p)
		if rep.FullView != c.FullViewCovered(p) {
			t.Fatalf("trial %d: Report.FullView inconsistent", trial)
		}
		if rep.Necessary != c.MeetsNecessary(p) {
			t.Fatalf("trial %d: Report.Necessary inconsistent", trial)
		}
		if rep.Sufficient != c.MeetsSufficient(p) {
			t.Fatalf("trial %d: Report.Sufficient inconsistent", trial)
		}
		if rep.NumCovering != c.CoverageCount(p) {
			t.Fatalf("trial %d: Report.NumCovering inconsistent", trial)
		}
	}
}

// TestImplicationChain is the central invariant of the paper's geometry:
// sufficient condition ⇒ full-view coverage ⇒ necessary condition, for
// every point, network, and θ.
func TestImplicationChain(t *testing.T) {
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.3, Radius: 0.15, Aperture: math.Pi},
		sensor.GroupSpec{Fraction: 0.7, Radius: 0.25, Aperture: 2 * math.Pi / 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{math.Pi / 6, math.Pi / 4, 0.3 * math.Pi, math.Pi / 2, 0.8 * math.Pi, math.Pi}
	for seed := uint64(0); seed < 4; seed++ {
		net, err := deploy.Uniform(geom.UnitTorus, profile, 400, rng.New(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range thetas {
			c, err := NewChecker(net, theta)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed, 77)
			for trial := 0; trial < 200; trial++ {
				p := geom.V(r.Float64(), r.Float64())
				rep := c.Report(p)
				if rep.Sufficient && !rep.FullView {
					t.Fatalf("seed %d θ=%v: sufficient but not full-view at %v", seed, theta, p)
				}
				if rep.FullView && !rep.Necessary {
					t.Fatalf("seed %d θ=%v: full-view but necessary fails at %v", seed, theta, p)
				}
			}
		}
	}
}

// TestNecessaryImpliesMinimumCameraCount checks the paper's remark that
// the necessary condition requires at least ⌊π/θ⌋ covering cameras (one
// per disjoint full 2θ sector).
func TestNecessaryImpliesMinimumCameraCount(t *testing.T) {
	profile, err := sensor.Homogeneous(0.3, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{math.Pi / 5, math.Pi / 3, math.Pi / 2} {
		minCams := int(math.Pi / theta)
		net, err := deploy.Uniform(geom.UnitTorus, profile, 200, rng.New(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewChecker(net, theta)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(4, 0)
		for trial := 0; trial < 200; trial++ {
			p := geom.V(r.Float64(), r.Float64())
			if c.MeetsNecessary(p) && c.CoverageCount(p) < minCams {
				t.Fatalf("θ=%v: necessary condition held with only %d < %d cameras",
					theta, c.CoverageCount(p), minCams)
			}
		}
	}
}

func TestNewCheckerFromIndexSharesIndex(t *testing.T) {
	profile, err := sensor.Homogeneous(0.2, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 100, rng.New(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewChecker(net, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewCheckerFromSource(base.Index(), math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	if other.Index() != base.Index() {
		t.Error("index not shared")
	}
	p := geom.V(0.25, 0.75)
	if base.CoverageCount(p) != other.CoverageCount(p) {
		t.Error("coverage counts differ across shared index")
	}
}
