package spatial

// Equivalence tests for the batch gather: the batch CSR
// results must equal the point-at-a-time outputs ELEMENT FOR ELEMENT —
// same values in the same per-point order, compared with == (never a
// tolerance) — over randomized heterogeneous networks with a 100×
// radius span, pinned Views of a mutated MutableIndex with a live overlay, and
// the wrap-seam / degenerate-batch edge cases. Plus
// testing.AllocsPerRun pins proving the steady state allocates nothing.

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// wideSpanNetwork mixes radii 0.002 … 0.2 so every per-radius tier of
// the index carries cameras: the tiny tiers exercise fine grid cells
// and (at small populations) the whole-tier "all" scan.
func wideSpanNetwork(t *testing.T, n int, seed uint64) *sensor.Network {
	t.Helper()
	p, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.002, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.3, Radius: 0.02, Aperture: math.Pi / 3},
		sensor.GroupSpec{Fraction: 0.3, Radius: 0.2, Aperture: math.Pi / 4},
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

// batchPoints draws a batch mixing uniform points, seam-hugging points
// (within one cell of the torus wrap on each axis), duplicates, and
// points planted near cameras so small-radius tiers see hits.
func batchPoints(net *sensor.Network, r *rng.PCG, n int) []geom.Vec {
	pts := make([]geom.Vec, 0, n)
	torus := net.Torus()
	for len(pts) < n {
		switch r.Intn(5) {
		case 0: // seam-hugging: exercises the mixed wrap classification
			x := r.Float64() * 0.01
			if r.Bool(0.5) {
				x = 1 - r.Float64()*0.01
			}
			y := r.Float64() * 0.01
			if r.Bool(0.5) {
				y = 1 - r.Float64()*0.01
			}
			pts = append(pts, geom.V(x, y))
		case 1: // planted inside / just outside a camera sector
			cam := net.Camera(r.Intn(net.Len()))
			dir := cam.Orient + (r.Float64()-0.5)*1.2*cam.Aperture
			d := geom.FromPolar(r.Float64()*1.05*cam.Radius, dir)
			pts = append(pts, torus.Translate(cam.Pos, d))
		case 2: // exact duplicate of an earlier batch point
			if len(pts) > 0 {
				pts = append(pts, pts[r.Intn(len(pts))])
				break
			}
			fallthrough
		default:
			pts = append(pts, geom.V(r.Float64(), r.Float64()))
		}
	}
	return pts
}

// batchSource is a Source with the batch loop: *Index and *View.
type batchSource interface {
	Source
	AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) ([]float64, []int32)
}

// assertBatchMatchesPoints checks the batch gather of src against its
// point-at-a-time gather with exact equality.
func assertBatchMatchesPoints(t *testing.T, tag string, src batchSource, sc *BatchScratch, pts []geom.Vec) {
	t.Helper()
	dirs, doffs := src.AppendViewedDirectionsBatch(sc, pts)
	if len(doffs) != len(pts)+1 {
		t.Fatalf("%s: offs length %d, want %d", tag, len(doffs), len(pts)+1)
	}
	var dirBuf []float64
	for i, p := range pts {
		dirBuf = src.AppendViewedDirections(dirBuf[:0], p)
		got := dirs[doffs[i]:doffs[i+1]]
		if len(got) != len(dirBuf) {
			t.Fatalf("%s point %d: batch found %d directions, point path %d",
				tag, i, len(got), len(dirBuf))
		}
		for k := range dirBuf {
			// Exact comparison: the batch path must be bit-identical,
			// not merely close.
			if got[k] != dirBuf[k] {
				t.Fatalf("%s point %d: direction %d differs: batch %v, point %v",
					tag, i, k, got[k], dirBuf[k])
			}
		}
	}
}

// TestBatchMatchesPointPathWideSpan compares the batch gather against
// the point-at-a-time path on randomized heterogeneous networks.
func TestBatchMatchesPointPathWideSpan(t *testing.T) {
	var sc BatchScratch
	for seed := uint64(1); seed <= 4; seed++ {
		// 40 cameras leaves some tiers nearly empty (whole-tier scans);
		// 600 forces fine grids on the small tiers.
		for _, n := range []int{40, 600} {
			net := wideSpanNetwork(t, n, seed)
			ix := NewIndex(net)
			r := rng.New(seed, 99)
			for trial := 0; trial < 4; trial++ {
				pts := batchPoints(net, r, 128)
				assertBatchMatchesPoints(t, "index", ix, &sc, pts)
			}
		}
	}
}

// TestBatchEdgeCases pins the degenerate batch shapes: empty batch,
// single point, and a batch of identical points.
func TestBatchEdgeCases(t *testing.T) {
	net := wideSpanNetwork(t, 200, 5)
	ix := NewIndex(net)
	var sc BatchScratch

	dirs, doffs := ix.AppendViewedDirectionsBatch(&sc, nil)
	if len(dirs) != 0 || len(doffs) != 1 || doffs[0] != 0 {
		t.Fatalf("empty batch: dirs %v offs %v, want empty CSR", dirs, doffs)
	}

	one := []geom.Vec{{X: 0.3, Y: 0.7}}
	assertBatchMatchesPoints(t, "single", ix, &sc, one)

	same := make([]geom.Vec, 64)
	for i := range same {
		same[i] = geom.V(0.123, 0.456)
	}
	assertBatchMatchesPoints(t, "identical", ix, &sc, same)
}

// TestBatchMatchesPointPathMutated drives the batch gather through
// pinned Views whose overlay is guaranteed non-empty — removals,
// re-aims, and additions that have not been folded into the CSR base —
// and re-checks each View across later mutations.
func TestBatchMatchesPointPathMutated(t *testing.T) {
	r := rng.New(77, 3)
	cams := baseCameras(t, 250, r)
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	// Negative fraction: never auto-rebuild, so the overlay stays live
	// and the batch path must consult the removed bitmap and the added
	// list for every candidate.
	m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
	var sc BatchScratch
	live := net.Len()
	for round := 0; round < 6; round++ {
		mut := randomMutation(live, r)
		live += applyMutationCount(t, m, mut)
		view := m.Snapshot()
		pts := batchPoints(net, r, 96)
		assertBatchMatchesPoints(t, "view", view, &sc, pts)
		// Mutate again and re-check the pinned view: its answers must
		// not move.
		if live > 0 {
			if _, err := m.Remove([]int{0}); err != nil {
				t.Fatal(err)
			}
			live--
		}
		assertBatchMatchesPoints(t, "view-after-mutation", view, &sc, pts)
	}
}

// applyMutationCount applies mut to m and returns the net change in
// live-camera count.
func applyMutationCount(t *testing.T, m *MutableIndex, mut oracleMutation) int {
	t.Helper()
	if len(mut.reaim) > 0 {
		if _, err := m.Reaim(mut.reaim); err != nil {
			t.Fatal(err)
		}
	}
	if len(mut.remove) > 0 {
		if _, err := m.Remove(mut.remove); err != nil {
			t.Fatal(err)
		}
	}
	if len(mut.add) > 0 {
		if _, err := m.Add(mut.add); err != nil {
			t.Fatal(err)
		}
	}
	return len(mut.add) - len(mut.remove)
}

// TestBatchZeroAllocSteadyState proves the batch gather allocates
// nothing once its scratch has grown — on the pure index and on a
// pinned View with a live overlay.
func TestBatchZeroAllocSteadyState(t *testing.T) {
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
	batches := [][]geom.Vec{
		batchPoints(net, r, 256),
		batchPoints(net, r, 256),
	}
	view := m.Snapshot()
	var sc BatchScratch
	for _, pts := range batches { // warm-up: grow scratch to high-water mark
		ix.AppendViewedDirectionsBatch(&sc, pts)
		view.AppendViewedDirectionsBatch(&sc, pts)
	}
	var sink int
	cases := []struct {
		name string
		fn   func([]geom.Vec)
	}{
		{"Index.AppendViewedDirectionsBatch", func(pts []geom.Vec) {
			dirs, _ := ix.AppendViewedDirectionsBatch(&sc, pts)
			sink += len(dirs)
		}},
		{"View.AppendViewedDirectionsBatch", func(pts []geom.Vec) {
			dirs, _ := view.AppendViewedDirectionsBatch(&sc, pts)
			sink += len(dirs)
		}},
	}
	for _, tc := range cases {
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			tc.fn(batches[i%len(batches)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per batch in steady state, want 0", tc.name, allocs)
		}
	}
	_ = sink
}
