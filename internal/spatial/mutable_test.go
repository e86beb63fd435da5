package spatial

import (
	"math"
	"sort"
	"sync"
	"testing"

	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// randomCamera draws one valid camera with heterogeneous parameters.
func randomCamera(r *rng.PCG) sensor.Camera {
	return sensor.Camera{
		Pos:      geom.V(r.Float64()*1.4-0.2, r.Float64()*1.4-0.2), // some out of [0,1): exercises wrapping
		Orient:   (r.Float64() - 0.5) * 4 * math.Pi,                // exercises normalization
		Radius:   0.04 + 0.16*r.Float64(),
		Aperture: 0.2 + (math.Pi-0.25)*r.Float64(),
		Group:    int(r.Uint64() % 3),
	}
}

// baseCameras draws n random cameras already normalized the way
// NewNetwork leaves them.
func baseCameras(t *testing.T, n int, r *rng.PCG) []sensor.Camera {
	t.Helper()
	cams := make([]sensor.Camera, n)
	for i := range cams {
		cams[i] = randomCamera(r)
	}
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	return net.Cameras()
}

// oracleMutation mirrors one MutableIndex mutation batch on a flat
// camera list with the documented live-list semantics.
type oracleMutation struct {
	reaim  []ReaimOp
	remove []int
	add    []sensor.Camera
}

// randomMutation draws a batch against the current live size. It may
// leave any (or every) group empty.
func randomMutation(live int, r *rng.PCG) oracleMutation {
	var mut oracleMutation
	if live > 0 {
		for k := int(r.Uint64() % 3); k > 0; k-- {
			mut.reaim = append(mut.reaim, ReaimOp{
				Index:  int(r.Uint64() % uint64(live)),
				Orient: (r.Float64() - 0.5) * 4 * math.Pi,
			})
		}
		nRemove := int(r.Uint64() % uint64(min(live, 4)))
		perm := r.Perm(live)
		mut.remove = append(mut.remove, perm[:nRemove]...)
	}
	for k := int(r.Uint64() % 4); k > 0; k-- {
		mut.add = append(mut.add, randomCamera(r))
	}
	return mut
}

// applyOracle applies the batch to the flat list exactly as the index
// documents: reaim in place (normalized), remove by descending index,
// add wrapped+normalized at the tail.
func applyOracle(cams []sensor.Camera, mut oracleMutation) []sensor.Camera {
	for _, op := range mut.reaim {
		cams[op.Index].Orient = geom.NormalizeAngle(op.Orient)
	}
	sorted := append([]int(nil), mut.remove...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for _, i := range sorted {
		cams = append(cams[:i], cams[i+1:]...)
	}
	for _, c := range mut.add {
		c.Pos = geom.UnitTorus.Wrap(c.Pos)
		c.Orient = geom.NormalizeAngle(c.Orient)
		cams = append(cams, c)
	}
	return cams
}

// applyIndex applies the same batch to the MutableIndex in the server's
// fixed order (reaim, remove, add), counting the version bumps.
func applyIndex(t *testing.T, m *MutableIndex, mut oracleMutation) uint64 {
	t.Helper()
	bumps := uint64(0)
	if len(mut.reaim) > 0 {
		if _, err := m.Reaim(mut.reaim); err != nil {
			t.Fatalf("Reaim: %v", err)
		}
		bumps++
	}
	if len(mut.remove) > 0 {
		if _, err := m.Remove(mut.remove); err != nil {
			t.Fatalf("Remove(%v): %v", mut.remove, err)
		}
		bumps++
	}
	if len(mut.add) > 0 {
		if _, err := m.Add(mut.add); err != nil {
			t.Fatalf("Add: %v", err)
		}
		bumps++
	}
	return bumps
}

// assertSourceEqual compares every Source read of got against a fresh
// immutable index over the oracle list, bit for bit, at points points.
func assertSourceEqual(t *testing.T, tag string, got Source, oracle []sensor.Camera, points []geom.Vec) {
	t.Helper()
	net, err := sensor.NewNetwork(geom.UnitTorus, oracle)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewIndex(net)
	if got.Len() != fresh.Len() {
		t.Fatalf("%s: Len = %d, fresh index has %d", tag, got.Len(), fresh.Len())
	}
	var dirsG, dirsF []float64
	for pi, p := range points {
		if g, f := got.CountCovering(p), fresh.CountCovering(p); g != f {
			t.Fatalf("%s: point %d: CountCovering %d vs fresh %d", tag, pi, g, f)
		}
		dirsG = got.AppendViewedDirections(dirsG[:0], p)
		dirsF = fresh.AppendViewedDirections(dirsF[:0], p)
		if len(dirsG) != len(dirsF) {
			t.Fatalf("%s: point %d: %d directions vs fresh %d", tag, pi, len(dirsG), len(dirsF))
		}
		sort.Float64s(dirsG)
		sort.Float64s(dirsF)
		for i := range dirsG {
			if dirsG[i] != dirsF[i] { // exact float bits, not approximate
				t.Fatalf("%s: point %d: direction[%d] = %v vs fresh %v", tag, pi, i, dirsG[i], dirsF[i])
			}
		}
	}
}

// TestMutableEquivalenceRandomized is the keystone of the overlay
// design: across ≥ 100 random mutation sequences, a View pinned from a
// MutableIndex must answer every Source read bit-identically to a fresh immutable index
// built from the final camera list — through the overlay, after a
// mid-sequence rebuild with further mutations on top, and after a
// final forced rebuild.
func TestMutableEquivalenceRandomized(t *testing.T) {
	const sequences = 120
	for seq := 0; seq < sequences; seq++ {
		r := rng.New(0xC0FFEE, uint64(seq))
		n := int(r.Uint64() % 61) // 0..60: empty bases are legal
		oracle := baseCameras(t, n, r)
		net, err := sensor.NewNetwork(geom.UnitTorus, oracle)
		if err != nil {
			t.Fatal(err)
		}
		// Automatic rebuilds off: the suite drives them explicitly so it
		// deterministically covers both pre- and post-rebuild states.
		m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})

		wantVersion := uint64(0)
		batches := 1 + int(r.Uint64()%8)
		for b := 0; b < batches; b++ {
			mut := randomMutation(len(oracle), r)
			oracle = applyOracle(oracle, mut)
			wantVersion += applyIndex(t, m, mut)

			points := make([]geom.Vec, 30)
			for i := range points {
				points[i] = geom.V(r.Float64()*1.2-0.1, r.Float64()*1.2-0.1)
			}
			assertSourceEqual(t, "overlay", m.Snapshot(), oracle, points)
			if got := m.Version(); got != wantVersion {
				t.Fatalf("seq %d batch %d: version %d, want %d", seq, b, got, wantVersion)
			}
			if b == batches/2 {
				// Mid-sequence rebuild; later batches mutate the rebuilt base.
				m.ForceRebuild()
				m.WaitRebuild()
				if m.OverlaySize() != 0 {
					t.Fatalf("seq %d: overlay not empty after rebuild: %d", seq, m.OverlaySize())
				}
				assertSourceEqual(t, "post-rebuild", m.Snapshot(), oracle, points)
			}
		}

		// The live list itself must match the oracle exactly.
		live := m.Cameras()
		if len(live) != len(oracle) {
			t.Fatalf("seq %d: live list has %d cameras, oracle %d", seq, len(live), len(oracle))
		}
		for i := range live {
			if live[i] != oracle[i] {
				t.Fatalf("seq %d: live camera %d = %+v, oracle %+v", seq, i, live[i], oracle[i])
			}
		}

		// Final rebuild: representation changes, verdicts and version must
		// not.
		v := m.Version()
		m.ForceRebuild()
		m.WaitRebuild()
		if got := m.Version(); got != v {
			t.Fatalf("seq %d: rebuild bumped version %d → %d", seq, v, got)
		}
		points := make([]geom.Vec, 30)
		for i := range points {
			points[i] = geom.V(r.Float64(), r.Float64())
		}
		assertSourceEqual(t, "final-rebuild", m.Snapshot(), oracle, points)
	}
}

// TestMutableThresholdRebuild checks that overlay growth past the
// configured fraction triggers the background rebuild and that the
// OnRebuild hook fires.
func TestMutableThresholdRebuild(t *testing.T) {
	r := rng.New(3, 0)
	oracle := baseCameras(t, 40, r)
	net, err := sensor.NewNetwork(geom.UnitTorus, oracle)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hooks := 0
	m := NewMutableIndex(net, MutableOptions{
		RebuildFraction: 0.1,
		OnRebuild:       func() { mu.Lock(); hooks++; mu.Unlock() },
	})
	// 8 added cameras > 10% of 40: the rebuild must kick in by itself.
	var adds []sensor.Camera
	for i := 0; i < 8; i++ {
		adds = append(adds, randomCamera(r))
	}
	if _, err := m.Add(adds); err != nil {
		t.Fatal(err)
	}
	for _, c := range adds {
		c.Pos = geom.UnitTorus.Wrap(c.Pos)
		c.Orient = geom.NormalizeAngle(c.Orient)
		oracle = append(oracle, c)
	}
	m.WaitRebuild()
	if m.Rebuilds() == 0 {
		t.Fatal("overlay past threshold never rebuilt")
	}
	if m.OverlaySize() != 0 {
		t.Fatalf("overlay size %d after rebuild, want 0", m.OverlaySize())
	}
	mu.Lock()
	h := hooks
	mu.Unlock()
	if h == 0 {
		t.Fatal("OnRebuild hook never fired")
	}
	points := make([]geom.Vec, 50)
	for i := range points {
		points[i] = geom.V(r.Float64(), r.Float64())
	}
	assertSourceEqual(t, "threshold-rebuild", m.Snapshot(), oracle, points)
}

// TestMutableValidation pins the all-or-nothing mutation contract:
// invalid batches error without changing state or version.
func TestMutableValidation(t *testing.T) {
	r := rng.New(5, 0)
	net, err := sensor.NewNetwork(geom.UnitTorus, baseCameras(t, 10, r))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutableIndex(net, MutableOptions{})
	v := m.Version()
	if _, err := m.Remove([]int{3, 3}); err == nil {
		t.Error("duplicate remove index accepted")
	}
	if _, err := m.Remove([]int{10}); err == nil {
		t.Error("out-of-range remove index accepted")
	}
	if _, err := m.Reaim([]ReaimOp{{Index: -1}}); err == nil {
		t.Error("negative reaim index accepted")
	}
	if _, err := m.Add([]sensor.Camera{{Radius: -1}}); err == nil {
		t.Error("invalid camera accepted")
	}
	if got := m.Version(); got != v {
		t.Fatalf("failed mutations bumped version %d → %d", v, got)
	}
	if got := m.Len(); got != 10 {
		t.Fatalf("failed mutations changed Len to %d", got)
	}
	// Empty batches are no-ops, not bumps.
	if ver, err := m.Reaim(nil); err != nil || ver != v {
		t.Fatalf("empty Reaim: version %d err %v, want %d and nil", ver, err, v)
	}
}

// TestMutableSnapshotPinning checks that a View is frozen: mutations
// and rebuilds after Snapshot never change its answers or version.
func TestMutableSnapshotPinning(t *testing.T) {
	r := rng.New(7, 0)
	oracle := baseCameras(t, 25, r)
	net, err := sensor.NewNetwork(geom.UnitTorus, oracle)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
	points := make([]geom.Vec, 40)
	for i := range points {
		points[i] = geom.V(r.Float64(), r.Float64())
	}
	view := m.Snapshot()
	pinned := append([]sensor.Camera(nil), oracle...)

	if _, err := m.Remove([]int{0, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add([]sensor.Camera{randomCamera(r)}); err != nil {
		t.Fatal(err)
	}
	m.ForceRebuild()
	m.WaitRebuild()

	if view.Version() != 0 {
		t.Fatalf("pinned view version %d, want 0", view.Version())
	}
	assertSourceEqual(t, "pinned-view", view, pinned, points)
}

// TestMutableConcurrentReads races lock-free readers against mutations
// and rebuilds; correctness is bit-checked by the equivalence suite,
// this test exists for the race detector and for liveness.
func TestMutableConcurrentReads(t *testing.T) {
	r := rng.New(11, 0)
	net, err := sensor.NewNetwork(geom.UnitTorus, baseCameras(t, 50, r))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutableIndex(net, MutableOptions{RebuildFraction: 0.05})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rng.New(13, uint64(g))
			var dirs []float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := geom.V(rr.Float64(), rr.Float64())
				view := m.Snapshot()
				dirs = view.AppendViewedDirections(dirs[:0], p)
				view.CountCovering(p)
				view.Len()
			}
		}(g)
	}
	for i := 0; i < 60; i++ {
		live := m.Len()
		if live > 1 && i%3 == 0 {
			if _, err := m.Remove([]int{int(r.Uint64() % uint64(live))}); err != nil {
				t.Error(err)
			}
		} else if live > 0 && i%3 == 1 {
			if _, err := m.Reaim([]ReaimOp{{Index: int(r.Uint64() % uint64(live)), Orient: r.Float64()}}); err != nil {
				t.Error(err)
			}
		} else {
			if _, err := m.Add([]sensor.Camera{randomCamera(r)}); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	m.WaitRebuild()
}
