package core

// Randomized equivalence tests for the allocation-free coverage kernel:
// every fast-path verdict (spatial CSR gather, guard-band cover test,
// O(m) sector occupancy, in-place max-gap) is compared against the
// brute-force O(n·m) oracles — sensor.Network.ViewedDirections /
// CoveringIndices, geom.MaxCircularGap and sectorsAllOccupied below — on
// heterogeneous networks whose radii span two orders of magnitude
// (0.002 … 0.2), plus zero-allocation proofs via testing.AllocsPerRun.

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// sectorsAllOccupied reports whether every sector contains at least one
// of the directions. It is the O(sectors·dirs) reference implementation
// of occupancy.allOccupied: the oracle of the randomized equivalence
// tests.
func sectorsAllOccupied(sectors []geom.Sector, dirs []float64) bool {
	for _, s := range sectors {
		occupied := false
		for _, d := range dirs {
			if s.Contains(d) {
				occupied = true
				break
			}
		}
		if !occupied {
			return false
		}
	}
	return true
}

// wideSpanProfile mixes radii 0.002, 0.02 and 0.2 — a 100× span — so
// the per-radius tiers of the spatial index all carry cameras and the
// tiny-radius groups exercise fine grid cells.
func wideSpanProfile(t *testing.T) sensor.Profile {
	t.Helper()
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.002, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.02, Aperture: math.Pi / 3},
		sensor.GroupSpec{Fraction: 0.2, Radius: 0.2, Aperture: math.Pi / 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return profile
}

// equivPoints mixes uniform points with points planted inside camera
// sectors: uniform samples almost never land within 0.002 of a
// small-radius camera, so without planting, the tiny tiers would only
// ever exercise the zero-coverage path.
func equivPoints(net *sensor.Network, r *rng.PCG, uniform int) []geom.Vec {
	pts := make([]geom.Vec, 0, uniform+net.Len())
	for i := 0; i < uniform; i++ {
		pts = append(pts, geom.V(r.Float64(), r.Float64()))
	}
	torus := net.Torus()
	for i := 0; i < net.Len(); i++ {
		cam := net.Camera(i)
		// A point at a random fraction of the radius, in a direction
		// jittered around the orientation so roughly half land inside
		// the sector and half just outside its angular boundary.
		dir := cam.Orient + (r.Float64()-0.5)*1.2*cam.Aperture
		d := geom.FromPolar(r.Float64()*1.05*cam.Radius, dir)
		pts = append(pts, torus.Translate(cam.Pos, d))
	}
	return pts
}

// bruteReport diagnoses p with the pre-kernel O(n) oracles only.
func bruteReport(t *testing.T, net *sensor.Network, theta float64, p geom.Vec) PointReport {
	t.Helper()
	necSectors, err := geom.AnchoredPartition(2 * theta)
	if err != nil {
		t.Fatal(err)
	}
	sufSectors, err := geom.AnchoredPartition(theta)
	if err != nil {
		t.Fatal(err)
	}
	dirs := net.ViewedDirections(p)
	necessary := sectorsAllOccupied(necSectors, dirs)
	sufficient := sectorsAllOccupied(sufSectors, dirs)
	gap, _ := geom.MaxCircularGap(dirs)
	return PointReport{
		NumCovering: len(net.CoveringIndices(p)),
		MaxGap:      gap,
		FullView:    len(dirs) > 0 && gap <= 2*theta,
		Necessary:   necessary,
		Sufficient:  sufficient,
	}
}

// TestKernelEquivalenceWideSpan compares every Checker verdict against
// the brute-force oracle on randomized heterogeneous networks with a
// 100× radius span. MaxGap must match bit-for-bit, not approximately:
// the kernel is designed to be bit-identical to the reference path.
func TestKernelEquivalenceWideSpan(t *testing.T) {
	profile := wideSpanProfile(t)
	thetas := []float64{0.15 * math.Pi, math.Pi / 4, math.Pi / 3}
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed, 7)
		net, err := deploy.Uniform(geom.UnitTorus, profile, 300, r)
		if err != nil {
			t.Fatal(err)
		}
		pts := equivPoints(net, r, 150)
		for _, theta := range thetas {
			checker, err := NewChecker(net, theta)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				want := bruteReport(t, net, theta, p)
				got := checker.Report(p)
				if got != want {
					t.Fatalf("seed %d θ=%.4f p=%v: Report = %+v, want %+v",
						seed, theta, p, got, want)
				}
				if fv := checker.FullViewCovered(p); fv != want.FullView {
					t.Fatalf("seed %d θ=%.4f p=%v: FullViewCovered = %v, want %v",
						seed, theta, p, fv, want.FullView)
				}
				if nec := checker.MeetsNecessary(p); nec != want.Necessary {
					t.Fatalf("seed %d θ=%.4f p=%v: MeetsNecessary = %v, want %v",
						seed, theta, p, nec, want.Necessary)
				}
				if suf := checker.MeetsSufficient(p); suf != want.Sufficient {
					t.Fatalf("seed %d θ=%.4f p=%v: MeetsSufficient = %v, want %v",
						seed, theta, p, suf, want.Sufficient)
				}
				if n := checker.CoverageCount(p); n != want.NumCovering {
					t.Fatalf("seed %d θ=%.4f p=%v: CoverageCount = %d, want %d",
						seed, theta, p, n, want.NumCovering)
				}
			}
		}
	}
}

// TestMultiCheckerMatchesChecker pins every θ of one fused Evaluate
// call to the independent brute-force oracle, so the one evaluator that
// serves both Checker and MultiChecker is checked against a reference
// that shares none of its code.
func TestMultiCheckerMatchesChecker(t *testing.T) {
	profile := wideSpanProfile(t)
	thetas := []float64{math.Pi / 6, 0.15 * math.Pi, math.Pi / 4, math.Pi / 3, math.Pi / 2}
	r := rng.New(42, 3)
	net, err := deploy.Uniform(geom.UnitTorus, profile, 300, r)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiChecker(net, thetas)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range equivPoints(net, r, 120) {
		rep := multi.Evaluate(p)
		if len(rep.PerTheta) != len(thetas) {
			t.Fatalf("PerTheta has %d entries, want %d", len(rep.PerTheta), len(thetas))
		}
		for i, theta := range thetas {
			want := bruteReport(t, net, theta, p)
			if rep.NumCovering != want.NumCovering || rep.MaxGap != want.MaxGap {
				t.Fatalf("θ=%.4f p=%v: shared fields (%d, %v), want (%d, %v)",
					theta, p, rep.NumCovering, rep.MaxGap, want.NumCovering, want.MaxGap)
			}
			pt := rep.PerTheta[i]
			if pt.Theta != theta || pt.FullView != want.FullView ||
				pt.Necessary != want.Necessary || pt.Sufficient != want.Sufficient {
				t.Fatalf("θ=%.4f p=%v: PerTheta = %+v, want %+v", theta, p, pt, want)
			}
		}
	}
}

// TestOccupancyMatchesOracle drives the O(m) bucketed occupancy test
// against the retained O(sectors·m) reference on randomized direction
// sets, including directions placed exactly on the j·w sector-boundary
// lattice where Contains decisions flip on a single ulp.
func TestOccupancyMatchesOracle(t *testing.T) {
	r := rng.New(9, 1)
	widths := []float64{
		2 * math.Pi, math.Pi, math.Pi / 2, math.Pi / 3, 0.3 * math.Pi,
		2 * math.Pi / 3, 0.9, 0.11, 2*math.Pi/7 + 1e-12,
	}
	for _, w := range widths {
		sectors, err := geom.AnchoredPartition(w)
		if err != nil {
			t.Fatal(err)
		}
		occ, err := newOccupancy(w)
		if err != nil {
			t.Fatal(err)
		}
		full, _ := geom.SplitCircle(w)
		for trial := 0; trial < 200; trial++ {
			m := r.Intn(3 * len(sectors))
			dirs := make([]float64, 0, m+4)
			for i := 0; i < m; i++ {
				switch r.Intn(4) {
				case 0:
					// Raw atan2 range (−π, π] — what viewedDirections yields.
					dirs = append(dirs, r.Float64()*2*math.Pi-math.Pi)
				case 1:
					dirs = append(dirs, r.Float64()*2*math.Pi)
				case 2:
					// Exactly on a sector-boundary lattice point.
					dirs = append(dirs, float64(r.Intn(full))*w)
				default:
					// One ulp around a lattice point.
					b := float64(r.Intn(full)) * w
					if r.Bool(0.5) {
						dirs = append(dirs, math.Nextafter(b, 7))
					} else {
						dirs = append(dirs, math.Nextafter(b, -7))
					}
				}
			}
			want := sectorsAllOccupied(sectors, dirs)
			if got := occ.allOccupied(dirs); got != want {
				t.Fatalf("w=%.6f dirs=%v: allOccupied = %v, oracle %v", w, dirs, got, want)
			}
		}
	}
}

// TestKernelZeroAllocSteadyState proves the hot path allocates nothing
// once its scratch buffers have grown: testing.AllocsPerRun must report
// exactly zero for every per-point operation on both Checker and
// MultiChecker.
func TestKernelZeroAllocSteadyState(t *testing.T) {
	profile := wideSpanProfile(t)
	r := rng.New(13, 5)
	net, err := deploy.Uniform(geom.UnitTorus, profile, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := NewChecker(net, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiChecker(net, []float64{0.15 * math.Pi, math.Pi / 4, math.Pi / 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := equivPoints(net, r, 64)
	// Warm-up pass: grow every scratch buffer to its high-water mark.
	for _, p := range pts {
		checker.Report(p)
		multi.Evaluate(p)
	}
	var sinkInt int
	var sinkBool bool
	cases := []struct {
		name string
		fn   func(geom.Vec)
	}{
		{"Checker.FullViewCovered", func(p geom.Vec) { sinkBool = checker.FullViewCovered(p) }},
		{"Checker.Report", func(p geom.Vec) { sinkInt += checker.Report(p).NumCovering }},
		{"Checker.MeetsNecessary", func(p geom.Vec) { sinkBool = checker.MeetsNecessary(p) }},
		{"Checker.MeetsSufficient", func(p geom.Vec) { sinkBool = checker.MeetsSufficient(p) }},
		{"Checker.CoverageCount", func(p geom.Vec) { sinkInt += checker.CoverageCount(p) }},
		{"Checker.UnsafeDirection", func(p geom.Vec) { _, sinkBool = checker.UnsafeDirection(p) }},
		{"MultiChecker.Evaluate", func(p geom.Vec) { sinkInt += multi.Evaluate(p).NumCovering }},
	}
	for _, tc := range cases {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			tc.fn(pts[i%len(pts)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
	_, _ = sinkInt, sinkBool
}
