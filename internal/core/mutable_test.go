package core

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// mutatedPair builds a MutableIndex, applies a mutation burst, and
// returns it next to a fresh network holding the identical final
// camera list.
func mutatedPair(t *testing.T) (*spatial.MutableIndex, *sensor.Network) {
	t.Helper()
	p, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.08, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.15, Aperture: math.Pi / 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, p, 80, rng.New(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := spatial.NewMutableIndex(net, spatial.MutableOptions{RebuildFraction: -1})
	if _, err := m.Remove([]int{70, 31, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reaim([]spatial.ReaimOp{{Index: 0, Orient: 2.1}, {Index: 40, Orient: -0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add([]sensor.Camera{
		{Pos: geom.V(0.33, 0.81), Orient: 1.0, Radius: 0.12, Aperture: math.Pi / 2},
		{Pos: geom.V(0.92, 0.04), Orient: -2.5, Radius: 0.18, Aperture: math.Pi / 3},
	}); err != nil {
		t.Fatal(err)
	}
	final, err := sensor.NewNetwork(geom.UnitTorus, m.Cameras())
	if err != nil {
		t.Fatal(err)
	}
	return m, final
}

// TestCheckerOverMutableEquivalence checks that Checker and
// MultiChecker verdicts through a View of a churned MutableIndex are
// bit-identical to checkers over a fresh network built from the final
// camera list — through the overlay and again after the rebuild.
func TestCheckerOverMutableEquivalence(t *testing.T) {
	m, final := mutatedPair(t)
	thetas := []float64{math.Pi / 6, math.Pi / 2, math.Pi}

	freshMC, err := NewMultiChecker(final, thetas)
	if err != nil {
		t.Fatal(err)
	}
	freshC, err := NewChecker(final, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}

	check := func(tag string) {
		t.Helper()
		mc, err := NewMultiCheckerFromSource(m.Snapshot(), thetas)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCheckerFromSource(m.Snapshot(), math.Pi/2)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(23, 1)
		for trial := 0; trial < 400; trial++ {
			p := geom.V(r.Float64(), r.Float64())
			got, want := mc.Evaluate(p), freshMC.Evaluate(p)
			if got.NumCovering != want.NumCovering || got.MaxGap != want.MaxGap {
				t.Fatalf("%s trial %d: Evaluate (%d, %v) vs fresh (%d, %v)",
					tag, trial, got.NumCovering, got.MaxGap, want.NumCovering, want.MaxGap)
			}
			for i := range got.PerTheta {
				if got.PerTheta[i] != want.PerTheta[i] {
					t.Fatalf("%s trial %d θ=%v: %+v vs fresh %+v",
						tag, trial, thetas[i], got.PerTheta[i], want.PerTheta[i])
				}
			}
			if g, w := c.FullViewCovered(p), freshC.FullViewCovered(p); g != w {
				t.Fatalf("%s trial %d: FullViewCovered %v vs fresh %v", tag, trial, g, w)
			}
			if g, w := c.CoverageCount(p), freshC.CoverageCount(p); g != w {
				t.Fatalf("%s trial %d: CoverageCount %d vs fresh %d", tag, trial, g, w)
			}
		}
	}
	if m.OverlaySize() == 0 {
		t.Fatal("mutation burst left no overlay; test would not exercise the overlay path")
	}
	check("overlay")
	m.ForceRebuild()
	m.WaitRebuild()
	check("post-rebuild")
}

// TestCheckerOverlayEmptyZeroAlloc pins the View read path at zero
// allocations per point, exactly like the immutable index: through a
// View with a live overlay (the churn read path) and through a View
// whose overlay is empty after a rebuild folded the churn away.
func TestCheckerOverlayEmptyZeroAlloc(t *testing.T) {
	m, _ := mutatedPair(t)
	if m.OverlaySize() == 0 {
		t.Fatal("mutation burst left no overlay; test would not exercise the overlay path")
	}
	live := m.Snapshot()
	m.ForceRebuild()
	m.WaitRebuild()
	if m.OverlaySize() != 0 {
		t.Fatalf("overlay size %d after rebuild, want 0", m.OverlaySize())
	}
	for _, tc := range []struct {
		name string
		view *spatial.View
	}{
		{"live overlay", live},
		{"empty overlay", m.Snapshot()},
	} {
		c, err := NewCheckerFromSource(tc.view, math.Pi/2)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := NewMultiCheckerFromSource(tc.view, []float64{math.Pi / 4, math.Pi / 2})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(29, 0)
		// Prime the internal buffers, then demand allocation-free steady
		// state.
		for i := 0; i < 50; i++ {
			p := geom.V(r.Float64(), r.Float64())
			c.FullViewCovered(p)
			mc.Evaluate(p)
		}
		var p geom.Vec
		if allocs := testing.AllocsPerRun(200, func() {
			p = geom.V(r.Float64(), r.Float64())
			c.FullViewCovered(p)
		}); allocs != 0 {
			t.Errorf("%s: Checker.FullViewCovered allocates %.2f per point, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			p = geom.V(r.Float64(), r.Float64())
			mc.Evaluate(p)
		}); allocs != 0 {
			t.Errorf("%s: MultiChecker.Evaluate allocates %.2f per point, want 0", tc.name, allocs)
		}
	}
}
