package spatial

// Equivalence tests for the grid raster: every point's slice of
// AppendGridDirections must hold the same float64 bit patterns, with the
// same multiplicities, as the point gather at that grid point — on a
// pure Index and on a View whose overlay removes, re-aims and adds
// cameras — plus the steady-state allocation pin.

import (
	"math"
	"testing"

	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// assertGridMatchesPoints checks the raster of rows [lo, hi) of the k×k
// grid against the point gather at every grid point of those rows.
func assertGridMatchesPoints(t *testing.T, tag string, src Source, sc *BatchScratch, k, lo, hi int) {
	t.Helper()
	torus := src.Torus()
	dirs, offs := src.AppendGridDirections(sc, k, lo, hi)
	if len(offs) != (hi-lo)*k+1 {
		t.Fatalf("%s k=%d rows [%d, %d): offs length %d, want %d", tag, k, lo, hi, len(offs), (hi-lo)*k+1)
	}
	for i := lo; i < hi; i++ {
		for j := 0; j < k; j++ {
			p := geom.V(torus.GridCoord(k, i), torus.GridCoord(k, j))
			want := src.AppendViewedDirections(nil, p)
			q := (i-lo)*k + j
			if got := dirs[offs[q]:offs[q+1]]; !sameBitsMultiset(got, want) {
				t.Fatalf("%s k=%d rows [%d, %d) point (%d, %d) = %v: raster %v, point gather %v",
					tag, k, lo, hi, i, j, p, got, want)
			}
		}
	}
}

// gridCamera decodes one camera (9 bytes) for FuzzGridGather. Mode 0 is
// the FuzzGather camera; mode 1 puts it on a grid point of the k×k grid,
// mode 2 on the seam; mode 3 keeps the position but widens the aperture
// past π (up to exactly 2π), and mode 4 stretches the radius to side/2
// or more, where the disc wraps onto itself.
func (d *fuzzDecoder) gridCamera(side float64, k int) sensor.Camera {
	mode := d.u8() % 5
	c := d.camera(side)
	t, _ := geom.NewTorus(side)
	switch mode {
	case 1:
		c.Pos = geom.V(t.GridCoord(k, d.u8()%k), t.GridCoord(k, d.u8()%k))
	case 2:
		seam := []float64{0, math.Nextafter(side, 0), side}
		s := d.u8()
		c.Pos = geom.V(seam[s%3], t.GridCoord(k, d.u8()%k))
		if s&8 != 0 {
			c.Pos.X, c.Pos.Y = c.Pos.Y, c.Pos.X
		}
	case 3:
		c.Aperture = math.Min(geom.TwoPi, math.Pi*(1+float64(d.u8())/128))
	case 4:
		c.Radius = side * (0.5 + float64(d.u8())/64)
	}
	return c
}

// FuzzGridGather decodes a small heterogeneous network built to stress
// the raster — cameras on grid points and on the seam, apertures above
// π and equal to 2π, radii of side/2 and more — a short mutation
// sequence, a grid side k ∈ [1, 48] and a row range, and compares every
// point of the rastered rows with the point gather, on a fresh Index
// over the live list and on the mutated View.
func FuzzGridGather(f *testing.F) {
	// A grid-point camera, a 2π one and a wrapping radius, whole grid.
	f.Add([]byte(fuzzSeed{}.u8(0, 6, 3).
		u8(1).cam(0.3, 0.3, 0.1, 4, 255).u8(2, 3).
		u8(3).cam(0.5, 0.5, 0.7, 5, 60).u8(255).
		u8(4).cam(0.6, 0.4, 0.4, 3, 128).u8(20).
		u8(0, 0, 6)))
	// Seam cameras on a non-unit torus, wide apertures, a partial row
	// range, and an overlay that re-aims, removes and adds.
	f.Add([]byte(fuzzSeed{}.u8(1, 17, 5).
		u8(2).cam(0.16, 0.16, 0.2, 5, 200).u8(0, 4).
		u8(2).cam(0.83, 0.83, 0.9, 6, 255).u8(9, 7).
		u8(3).cam(0.17, 0.83, 0.5, 4, 90).u8(64).
		u8(0).cam(0.84, 0.17, 0.0, 7, 40).
		u8(1).cam(0.5, 0.5, 0.3, 2, 100).u8(8, 8).
		u8(3, 0, 1).u16(0x4000).u8(1, 2).u8(2).u8(3).cam(0.165, 0.84, 0.3, 5, 255).u8(10).
		u8(5, 9)))
	// Side 10 with windowed tiers, cameras on grid points facing along
	// the rows and columns, the largest grid, a rebuild in between.
	f.Add([]byte(fuzzSeed{}.u8(2, 47, 8).
		u8(1).cam(0.1, 0.1, 0.0, 0, 64).u8(3, 5).
		u8(1).cam(0.3, 0.2, 0.25, 1, 128).u8(10, 10).
		u8(1).cam(0.5, 0.6, 0.5, 0, 128).u8(20, 30).
		u8(1).cam(0.7, 0.8, 0.75, 1, 128).u8(40, 2).
		u8(0).cam(0.2, 0.7, 0.7, 0, 100).
		u8(2).cam(0.9, 0.4, 0.4, 1, 255).u8(1, 11).
		u8(4).cam(0.4, 0.4, 0.6, 2, 30).u8(0).
		u8(3).cam(0.6, 0.3, 0.1, 3, 90).u8(128).
		u8(2, 3, 2).cam(0.3, 0.3, 0.9, 2, 180).
		u8(11, 30)))
	// An empty base whose every camera is an overlay addition.
	f.Add([]byte(fuzzSeed{}.u8(0, 9, 0).
		u8(2, 2).u8(3).cam(0.5, 0.5, 0.2, 6, 200).u8(200).
		u8(2).u8(0).cam(0.1, 0.2, 0.3, 4, 100).
		u8(0, 9)))
	// One-point grid, and a two-point grid of every camera kind.
	f.Add([]byte(fuzzSeed{}.u8(0, 0, 2).u8(4).cam(0.5, 0.5, 0.5, 7, 255).u8(64).u8(3).cam(0.1, 0.9, 0.2, 1, 10).u8(128).u8(0, 0, 1)))
	f.Add([]byte(fuzzSeed{}.u8(0, 1, 4).u8(1).cam(0.5, 0.5, 0.5, 3, 50).u8(0, 1).u8(2).cam(0.1, 0.9, 0.2, 1, 10).u8(0, 1).
		u8(3).cam(0.2, 0.2, 0.2, 2, 20).u8(200).u8(4).cam(0.8, 0.2, 0.9, 0, 99).u8(7).u8(0, 1, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{b: data}
		side := []float64{1, 0.37, 10}[d.u8()%3]
		torus, err := geom.NewTorus(side)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + d.u8()%48
		cams := make([]sensor.Camera, d.u8()%13)
		for i := range cams {
			cams[i] = d.gridCamera(side, k)
		}
		net, err := sensor.NewNetwork(torus, cams)
		if err != nil {
			t.Fatal(err)
		}
		live := net.Cameras()
		m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
		for n := d.u8() % 6; n > 0; n-- {
			var mut oracleMutation
			switch d.u8() % 4 {
			case 0:
				idx, orient := d.u8(), (d.unit()-0.5)*4*math.Pi
				if len(live) == 0 {
					continue
				}
				mut.reaim = []ReaimOp{{Index: idx % len(live), Orient: orient}}
			case 1:
				idx := d.u8()
				if len(live) == 0 {
					continue
				}
				mut.remove = []int{idx % len(live)}
			case 2:
				mut.add = []sensor.Camera{d.gridCamera(side, k)}
			case 3:
				m.ForceRebuild()
				continue
			}
			live = applyOracleOn(torus, live, mut)
			applyIndex(t, m, mut)
		}
		lo := d.u8() % (k + 1)
		hi := lo + d.u8()%(k-lo+1)
		liveNet, err := sensor.NewNetwork(torus, live)
		if err != nil {
			t.Fatal(err)
		}
		var sc BatchScratch
		assertGridMatchesPoints(t, "index", NewIndex(liveNet), &sc, k, lo, hi)
		assertGridMatchesPoints(t, "view", m.Snapshot(), &sc, k, lo, hi)
	})
}

// TestGridGatherMatchesPointGather rasters whole grids and row blocks of
// randomized networks whose radii span 100× or whose apertures exceed
// π, and of Views with a live overlay, against the point gather.
func TestGridGatherMatchesPointGather(t *testing.T) {
	var sc BatchScratch
	for seed := uint64(1); seed <= 2; seed++ {
		for _, n := range []int{40, 600} {
			ix := NewIndex(wideSpanNetwork(t, n, seed))
			assertGridMatchesPoints(t, "index", ix, &sc, 61, 0, 61)
			assertGridMatchesPoints(t, "index", ix, &sc, 37, 5, 9)
		}
	}
	// Apertures above π, up to 2π: the disc minus a notch, one span or
	// two per row.
	r := rng.New(11, 4)
	wide := baseCameras(t, 300, r)
	for i := range wide {
		wide[i].Aperture = math.Pi * (1 + r.Float64())
	}
	wideNet, err := sensor.NewNetwork(geom.UnitTorus, wide)
	if err != nil {
		t.Fatal(err)
	}
	assertGridMatchesPoints(t, "wide", NewIndex(wideNet), &sc, 53, 0, 53)
	net, err := sensor.NewNetwork(geom.UnitTorus, baseCameras(t, 250, r))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
	live := net.Len()
	for round := 0; round < 4; round++ {
		live += applyMutationCount(t, m, randomMutation(live, r))
		assertGridMatchesPoints(t, "view", m.Snapshot(), &sc, 45, 3*round, 3*round+20)
	}
}

// TestGridGatherNearVerticalEdge puts a camera one ulp right of a grid
// row with a wedge edge pointing straight up the row. The row's points
// above the camera lie a few 10⁻¹⁷ rad outside the exact wedge and
// covers accepts them after rounding, but the unwidened edge's bound on
// the row lies more than a grid step below the camera: only
// rasterAngleSlack keeps them in the row's span.
func TestGridGatherNearVerticalEdge(t *testing.T) {
	const k = 10
	torus := geom.UnitTorus
	cams := []sensor.Camera{{
		Pos:      geom.V(math.Nextafter(torus.GridCoord(k, 0), 1), torus.GridCoord(k, 2)),
		Orient:   math.Pi / 4,
		Radius:   0.5,
		Aperture: math.Pi / 2,
	}}
	net, err := sensor.NewNetwork(torus, cams)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	if got := ix.AppendViewedDirections(nil, geom.V(torus.GridCoord(k, 0), torus.GridCoord(k, 5))); len(got) != 1 {
		t.Fatalf("point gather found %d directions above the camera, want 1", len(got))
	}
	var sc BatchScratch
	assertGridMatchesPoints(t, "near-vertical", ix, &sc, k, 0, k)
}

// TestGridGatherZeroAlloc proves the raster allocates nothing once its
// scratch has grown, on the pure index and on a View with an overlay.
func TestGridGatherZeroAlloc(t *testing.T) {
	net := wideSpanNetwork(t, 400, 9)
	ix := NewIndex(net)
	m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
	r := rng.New(3, 1)
	if _, err := m.Remove([]int{1, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add([]sensor.Camera{randomCamera(r), randomCamera(r)}); err != nil {
		t.Fatal(err)
	}
	view := m.Snapshot()
	var sc BatchScratch
	const k = 64
	var sink int
	for _, src := range []Source{ix, view} {
		src.AppendGridDirections(&sc, k, 0, k) // warm-up: the largest block
		block := 0
		allocs := testing.AllocsPerRun(20, func() {
			lo := block % (k / 8) * 8
			dirs, _ := src.AppendGridDirections(&sc, k, lo, lo+8)
			sink += len(dirs)
			block++
		})
		if allocs != 0 {
			t.Errorf("%T: %.1f allocs per 8-row block in steady state, want 0", src, allocs)
		}
	}
	_ = sink
}
