package spatial

import (
	"math"
	"sort"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

func randomNetwork(t *testing.T, n int, seed uint64) *sensor.Network {
	t.Helper()
	p, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.08, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.15, Aperture: math.Pi / 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, p, n, rng.New(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestIndexMatchesBruteForce pins which cameras the index considers
// covering: ix.covers(i, p) must equal cameras[i].Covers(torus, p) for
// every camera i, over uniform points and points planted on each
// camera's position, radius and aperture edges and across the seam,
// and the gather must find every covering camera.
func TestIndexMatchesBruteForce(t *testing.T) {
	net := randomNetwork(t, 500, 42)
	ix := NewIndex(net)
	torus := net.Torus()
	r := rng.New(7, 1)
	points := make([]geom.Vec, 0, 500+4*net.Len())
	for trial := 0; trial < 500; trial++ {
		points = append(points, geom.V(r.Float64(), r.Float64()))
	}
	for i := 0; i < net.Len(); i++ {
		cam := net.Camera(i)
		edge := cam.Orient + cam.Aperture/2
		points = append(points,
			cam.Pos,
			torus.Translate(cam.Pos, geom.FromPolar(cam.Radius, cam.Orient)),
			torus.Translate(cam.Pos, geom.FromPolar(cam.Radius*r.Float64(), edge)),
			geom.V(cam.Pos.X, math.Nextafter(1, 0)),
		)
	}
	for pi, p := range points {
		w := torus.Wrap(p)
		want := 0
		for i := 0; i < net.Len(); i++ {
			covered := net.Camera(i).Covers(torus, w)
			if got := ix.covers(int32(i), w.X, w.Y); got != covered {
				t.Fatalf("point %d %v: covers(%d) = %v, Camera.Covers %v", pi, p, i, got, covered)
			}
			if covered {
				want++
			}
		}
		if got := ix.CountCovering(p); got != want {
			t.Fatalf("point %d %v: CountCovering = %d, brute force %d", pi, p, got, want)
		}
	}
}

func TestAppendViewedDirectionsMatchesBruteForce(t *testing.T) {
	net := randomNetwork(t, 300, 99)
	ix := NewIndex(net)
	r := rng.New(11, 1)
	buf := make([]float64, 0, 64)
	for trial := 0; trial < 300; trial++ {
		p := geom.V(r.Float64(), r.Float64())
		want := net.ViewedDirections(p)
		buf = ix.AppendViewedDirections(buf[:0], p)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(buf), len(want))
		}
		sort.Float64s(buf)
		sort.Float64s(want)
		for i := range want {
			if buf[i] != want[i] { // exact bits: the documented contract
				t.Fatalf("trial %d: directions differ at %d: %v vs %v", trial, i, buf[i], want[i])
			}
		}
	}
}

func TestCountCovering(t *testing.T) {
	net := randomNetwork(t, 400, 5)
	ix := NewIndex(net)
	r := rng.New(13, 1)
	for trial := 0; trial < 200; trial++ {
		p := geom.V(r.Float64(), r.Float64())
		if got, want := ix.CountCovering(p), len(net.CoveringIndices(p)); got != want {
			t.Fatalf("trial %d: CountCovering = %d, want %d", trial, got, want)
		}
	}
}

func TestIndexEmptyNetwork(t *testing.T) {
	net, err := sensor.NewNetwork(geom.UnitTorus, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	if ix.Len() != 0 {
		t.Errorf("Len = %d", ix.Len())
	}
	if got := ix.CountCovering(geom.V(0.5, 0.5)); got != 0 {
		t.Errorf("CountCovering = %d", got)
	}
}

func TestIndexSingleCamera(t *testing.T) {
	cams := []sensor.Camera{{
		Pos: geom.V(0.5, 0.5), Orient: 0, Radius: 0.2, Aperture: math.Pi,
	}}
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	if got := ix.CountCovering(geom.V(0.6, 0.5)); got != 1 {
		t.Errorf("point in sector: CountCovering = %d, want 1", got)
	}
	if got := ix.CountCovering(geom.V(0.4, 0.5)); got != 0 {
		t.Errorf("point behind camera: CountCovering = %d, want 0", got)
	}
}

func TestIndexLargeRadiusCoversWholeTorus(t *testing.T) {
	// Radius beyond the torus diameter forces the scan-everything path.
	cams := []sensor.Camera{{
		Pos: geom.V(0.1, 0.1), Orient: 0, Radius: 2, Aperture: 2 * math.Pi,
	}}
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	r := rng.New(17, 0)
	for i := 0; i < 100; i++ {
		p := geom.V(r.Float64(), r.Float64())
		if ix.CountCovering(p) != 1 {
			t.Fatalf("omnidirectional full-range camera missed %v", p)
		}
	}
}

func TestIndexSeamQueries(t *testing.T) {
	// Cameras clustered at the torus corner; queries from the opposite
	// side of the seam must still find them.
	cams := []sensor.Camera{
		{Pos: geom.V(0.02, 0.02), Orient: math.Pi, Radius: 0.1, Aperture: 2 * math.Pi},
		{Pos: geom.V(0.98, 0.98), Orient: 0, Radius: 0.1, Aperture: 2 * math.Pi},
	}
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	if got := ix.CountCovering(geom.V(0.99, 0.99)); got != 2 {
		t.Errorf("corner point sees %d cameras, want 2 (seam wrap)", got)
	}

	// An unwrapped query on the seam: p = (1, 0.5) wraps to (0, 0.5),
	// exactly r from the camera. Torus.Delta's math.Mod rounds the raw
	// difference 1 − x differently from the wrapped 0 − x, so a scan
	// that tests the raw point disagrees with the index, which wraps
	// first. The oracle must read the wrapped point too.
	x := 0.3333333333333332
	seam, err := sensor.NewNetwork(geom.UnitTorus, []sensor.Camera{
		{Pos: geom.V(x, 0.5), Orient: math.Pi, Radius: x, Aperture: 2 * math.Pi},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.V(1, 0.5)
	if !seam.Camera(0).Covers(seam.Torus(), seam.Torus().Wrap(p)) {
		t.Fatalf("Camera.Covers(Wrap(%v)) = false; the reproducer no longer sits on the edge", p)
	}
	checkAgainstOracle(t, seam, NewIndex(seam), p, "unwrapped seam point")
	if got := len(seam.CoveringIndices(p)); got != 1 {
		t.Errorf("CoveringIndices(%v) has %d cameras, want 1", p, got)
	}
}

func TestCellsPerSide(t *testing.T) {
	tests := []struct {
		name   string
		side   float64
		maxR   float64
		n      int
		want   int
		capped bool // a cap, not the radius, sets the grid
	}{
		{name: "empty network", side: 1, maxR: 0.1, n: 0, want: 1, capped: true},
		{name: "zero radius", side: 1, maxR: 0, n: 100, want: 1, capped: true},
		{name: "radius bound", side: 1, maxR: 0.25, n: 10000, want: 7},
		{name: "integral 2·side/maxR", side: 1, maxR: 0.1, n: 10000, want: 19},
		{name: "integral 2·side/maxR, wide radius", side: 1, maxR: 0.2, n: 10000, want: 9},
		{name: "scaled torus", side: 10, maxR: 0.37, n: 10000, want: 54},
		{name: "count bound", side: 1, maxR: 0.001, n: 100, want: 21, capped: true},
		{name: "hard cap", side: 1, maxR: 1e-9, n: 100000000, want: maxCellsPerSide, capped: true},
		{name: "tiny radius", side: 1, maxR: 1e-300, n: 100, want: 21, capped: true},
		{name: "radius larger than side", side: 1, maxR: 3, n: 100, want: 1, capped: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := cellsPerSide(tt.side, tt.maxR, tt.n)
			if got != tt.want {
				t.Errorf("cellsPerSide(%v, %v, %d) = %d, want %d",
					tt.side, tt.maxR, tt.n, got, tt.want)
			}
			if tt.capped {
				return
			}
			if cellSize := tt.side / float64(got); cellSize <= tt.maxR/2 {
				t.Errorf("cell size %v ≤ maxR/2 = %v", cellSize, tt.maxR/2)
			}
			// The tier built at this size stores reach 2: a 5×5 window of
			// half-radius cells.
			torus, err := geom.NewTorus(tt.side)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sensor.Homogeneous(tt.maxR, math.Pi/2)
			if err != nil {
				t.Fatal(err)
			}
			net, err := deploy.Uniform(torus, p, tt.n, rng.New(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			tr := NewIndex(net).tiers[0]
			if tr.cells != got || tr.reach != 2 || tr.all {
				t.Errorf("tier: %d cells, reach %d, whole-tier %v; want %d cells, reach 2, windowed",
					tr.cells, tr.reach, tr.all, got)
			}
		})
	}
}

func BenchmarkIndexQuery(b *testing.B) {
	p, err := sensor.Homogeneous(0.05, math.Pi/2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, p, 10000, rng.New(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	ix := NewIndex(net)
	r := rng.New(2, 0)
	buf := make([]float64, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.AppendViewedDirections(buf[:0], geom.V(r.Float64(), r.Float64()))
	}
}

func BenchmarkBruteForceQuery(b *testing.B) {
	p, err := sensor.Homogeneous(0.05, math.Pi/2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, p, 10000, rng.New(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ViewedDirections(geom.V(r.Float64(), r.Float64()))
	}
}
