package spatial

// Adversarial boundary cases for the guard-band cover test: query points
// placed exactly on a camera's radius or exactly on its aperture edge
// land inside the ±coverGuard·dist band, forcing the exact
// Camera.Covers fallback. Every verdict must still agree with the
// oracle bit-for-bit, and the wide-span test stresses the per-radius
// tiers with a 100× radius spread that the uniform index_test profile
// does not reach.

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// checkAgainstOracle asserts that the index agrees with the O(n) oracle
// on count, on which cameras cover point p, and on viewed directions.
func checkAgainstOracle(t *testing.T, net *sensor.Network, ix *Index, p geom.Vec, label string) {
	t.Helper()
	want := net.CoveringIndices(p)
	if got := ix.CountCovering(p); got != len(want) {
		t.Errorf("%s p=%v: CountCovering = %d, oracle %d", label, p, got, len(want))
	}
	w := net.Torus().Wrap(p)
	for i := 0; i < net.Len(); i++ {
		if got, covered := ix.covers(ix.camSlot[i], w.X, w.Y), net.Camera(i).Covers(net.Torus(), w); got != covered {
			t.Errorf("%s p=%v: covers(%d) = %v, Camera.Covers %v", label, p, i, got, covered)
		}
	}
	wantDirs := net.ViewedDirections(p)
	gotDirs := ix.AppendViewedDirections(nil, p)
	if len(gotDirs) != len(wantDirs) {
		t.Fatalf("%s p=%v: %d directions, oracle %d", label, p, len(gotDirs), len(wantDirs))
	}
	// Both sides enumerate cameras in index order within a radius class,
	// but the tiers reorder across classes; compare as multisets exactly.
	seen := make(map[float64]int, len(wantDirs))
	for _, d := range wantDirs {
		seen[d]++
	}
	for _, d := range gotDirs {
		if seen[d] == 0 {
			t.Fatalf("%s p=%v: direction %v not produced by oracle", label, p, d)
		}
		seen[d]--
	}
}

func TestIndexBoundaryExactCases(t *testing.T) {
	// Camera at the centre, aimed along +x, quarter-circle aperture.
	cam := sensor.Camera{
		Pos:      geom.V(0.5, 0.5),
		Orient:   0,
		Radius:   0.25,
		Aperture: math.Pi / 2,
	}
	net, err := sensor.NewNetwork(geom.UnitTorus, []sensor.Camera{cam})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	r := cam.Radius
	h := cam.Radius / math.Sqrt2 // on the 45° aperture edge (dx == dy)
	cases := []struct {
		name string
		p    geom.Vec
	}{
		{"exact radius on axis", geom.V(0.5+r, 0.5)},
		{"one ulp beyond radius", geom.V(math.Nextafter(0.5+r, 1), 0.5)},
		{"one ulp inside radius", geom.V(math.Nextafter(0.5+r, 0), 0.5)},
		{"exact aperture edge dx==dy", geom.V(0.5+h, 0.5+h)},
		{"exact aperture edge dx==-dy", geom.V(0.5+h, 0.5-h)},
		{"ulp outside aperture edge", geom.V(0.5+h, math.Nextafter(0.5+h, 1))},
		{"ulp inside aperture edge", geom.V(0.5+h, math.Nextafter(0.5+h, 0))},
		{"at the camera position", cam.Pos},
		{"behind the camera", geom.V(0.5-0.1, 0.5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCount := 0
			if cam.Covers(geom.UnitTorus, tc.p) {
				wantCount = 1
			}
			if got := ix.CountCovering(tc.p); got != wantCount {
				t.Errorf("CountCovering = %d, Camera.Covers says %d", got, wantCount)
			}
			checkAgainstOracle(t, net, ix, tc.p, tc.name)
		})
	}
}

// TestIndexWideRadiusSpan is the randomized brute-force comparison on a
// heterogeneous profile spanning 100× in radius (0.002 … 0.2), so every
// tier of the CSR grid carries cameras and small tiers use a far finer
// cell size than the big-radius tier.
func TestIndexWideRadiusSpan(t *testing.T) {
	p, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.002, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.02, Aperture: math.Pi / 3},
		sensor.GroupSpec{Fraction: 0.2, Radius: 0.2, Aperture: math.Pi / 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		net, err := deploy.Uniform(geom.UnitTorus, p, 400, rng.New(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(net)
		r := rng.New(seed, 11)
		for trial := 0; trial < 100; trial++ {
			checkAgainstOracle(t, net, ix, geom.V(r.Float64(), r.Float64()), "uniform")
		}
		// Points planted around cameras, concentrated near each sector's
		// radius and aperture boundary.
		for i := 0; i < net.Len(); i++ {
			cam := net.Camera(i)
			dir := cam.Orient + (r.Float64()-0.5)*1.1*cam.Aperture
			dist := cam.Radius * (0.95 + 0.1*r.Float64())
			q := geom.UnitTorus.Translate(cam.Pos, geom.FromPolar(dist, dir))
			checkAgainstOracle(t, net, ix, q, "planted")
		}
	}
}

// TestPointGatherZeroAlloc proves the point gathers append into the
// caller-owned scratch without allocating once capacity is reached — on
// the pure index and through a View with a live overlay.
func TestPointGatherZeroAlloc(t *testing.T) {
	net := randomNetwork(t, 400, 3)
	ix := NewIndex(net)
	r := rng.New(5, 2)
	m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
	if _, err := m.Remove([]int{4, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add([]sensor.Camera{randomCamera(r)}); err != nil {
		t.Fatal(err)
	}
	view := m.Snapshot()
	pts := make([]geom.Vec, 64)
	for i := range pts {
		pts[i] = geom.V(r.Float64(), r.Float64())
	}
	dirBuf := make([]float64, 0, net.Len())
	for _, src := range []Source{ix, view} {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			p := pts[i%len(pts)]
			dirBuf = src.AppendViewedDirections(dirBuf[:0], p)
			src.CountCovering(p)
			i++
		})
		if allocs != 0 {
			t.Errorf("%T AppendViewedDirections+CountCovering: %.1f allocs/op, want 0", src, allocs)
		}
	}
}
