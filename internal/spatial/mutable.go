// Mutable deployments: a versioned read-through overlay on top of the
// immutable CSR Index.
//
// A MutableIndex starts from a base Index and absorbs churn — cameras
// failing, being added, or re-aiming — as a Delta overlay: a bitmap of
// removed base cameras plus a flat list of added cameras consulted after
// the CSR gather. Every mutation publishes a fresh immutable snapshot
// (base, overlay, version) behind one atomic pointer, so readers never
// lock. Reads go through a pinned View (Snapshot): one atomic load, then
// the base Index's own gathers with the overlay passed as a parameter —
// nil when the overlay is empty, which is the pure-Index walk and keeps
// Checker-level reads at zero allocations per point.
//
// Results remain bit-identical to a fresh NewIndex over the live camera
// list: overlay cameras are tested with the exact sensor.Camera
// predicates, which the Index's guard-banded algebraic test matches bit
// for bit by contract, and every verdict downstream depends only on the
// multiset of covering cameras' viewed directions, never their order.
//
// Once the overlay outgrows a configurable fraction of the base, a
// background rebuild folds it into a fresh CSR index and swaps it in
// atomically (re-checking the version so a rebuild racing a mutation
// installs nothing stale, and rebuilding a stale build once under the
// mutation lock so sustained churn cannot starve the fold). Rebuilds
// change the representation, not the deployment: the version counter
// is bumped by mutations only.
package spatial

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// DefaultRebuildFraction is the overlay-to-base size ratio past which a
// background CSR rebuild is triggered when MutableOptions leaves
// RebuildFraction zero.
const DefaultRebuildFraction = 0.25

// Source is the read interface shared by the immutable *Index and a
// pinned *View of a MutableIndex. core.Checker and core.MultiChecker
// evaluate against a Source, so one checker code path serves both
// frozen deployments and snapshots of churning ones.
type Source interface {
	// AppendViewedDirections appends the viewed directions of every
	// camera covering p.
	AppendViewedDirections(dst []float64, p geom.Vec) []float64
	// AppendGridDirections answers AppendViewedDirections for every
	// point of rows [rowLo, rowHi) of the k×k grid through the
	// camera-major row raster: dirs[offs[q]:offs[q+1]] holds the same
	// directions as the point gather at grid point q of the block, in
	// tier → slot → added order. The returned slices are owned by sc and
	// valid until its next call.
	AppendGridDirections(sc *BatchScratch, k, rowLo, rowHi int) (dirs []float64, offs []int32)
	// CountCovering returns the point's k-coverage multiplicity.
	CountCovering(p geom.Vec) int
	// Torus returns the operational region.
	Torus() geom.Torus
	// Len returns the number of live cameras.
	Len() int
	// Version returns the deployment version the reads reflect (0 for
	// an immutable Index).
	Version() uint64
}

// Version returns 0: an immutable Index is always the pristine
// registration state. It exists so *Index satisfies Source.
func (ix *Index) Version() uint64 { return 0 }

// Compile-time Source conformance.
var (
	_ Source = (*Index)(nil)
	_ Source = (*View)(nil)
)

// ReaimOp re-aims one live camera to a new orientation (radians,
// normalized on apply).
type ReaimOp struct {
	// Index addresses the camera in the current live list (Cameras()
	// order), exactly as journaled mutation records do.
	Index int
	// Orient is the new facing direction.
	Orient float64
}

// MutableOptions parameterises NewMutableIndex.
type MutableOptions struct {
	// RebuildFraction is the overlay-size / base-size ratio past which
	// a background rebuild folds the overlay into a fresh CSR index
	// (0 selects DefaultRebuildFraction; negative disables automatic
	// rebuilds — ForceRebuild still works).
	RebuildFraction float64
	// BaseVersion is the version the pristine base state carries.
	// Journal replay of a compaction-folded registration passes the
	// folded-in mutation count here so versions stay monotonic across
	// restarts.
	BaseVersion uint64
	// OnRebuild, when non-nil, runs (outside all index locks) after a
	// background or forced rebuild installs a fresh base. Telemetry
	// hook.
	OnRebuild func()
}

// overlay is the delta between the base Index and the live deployment.
// An overlay is immutable once published inside a snapshot; mutations
// copy-on-write a new one.
type overlay struct {
	// removed is a bitmap over base camera indices; removedCount is its
	// popcount.
	removed      []uint64
	removedCount int
	// added holds overlay cameras (already wrapped and normalized, like
	// Network construction would leave them).
	added []sensor.Camera
}

func (o *overlay) isRemoved(i int32) bool {
	return o.removed != nil && o.removed[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

func (o *overlay) size() int { return o.removedCount + len(o.added) }

// clone deep-copies the overlay (or conjures an empty one for nil) so
// the published snapshot's overlay is never written again.
func (o *overlay) clone(baseLen int) *overlay {
	c := &overlay{}
	if o != nil {
		c.removedCount = o.removedCount
		if o.removed != nil {
			c.removed = append([]uint64(nil), o.removed...)
		}
		c.added = append([]sensor.Camera(nil), o.added...)
	}
	if c.removed == nil {
		c.removed = make([]uint64, (baseLen+63)/64)
	}
	return c
}

func (o *overlay) setRemoved(i int32) {
	o.removed[uint(i)>>6] |= 1 << (uint(i) & 63)
	o.removedCount++
}

// mutSnapshot is one immutable published state of a MutableIndex.
type mutSnapshot struct {
	base    *Index
	delta   *overlay // nil ⇒ reads are pure base (the fast path)
	version uint64
}

// camLoc records where one live camera lives in the current snapshot:
// exactly one of base (index into the base Index) or add (index into
// the overlay's added list) is ≥ 0.
type camLoc struct {
	base, add int32
}

// MutableIndex is a spatial index that accepts mutations. Reads go
// through Snapshot and are lock-free and safe from any number of
// goroutines concurrently with mutations; mutations are serialized
// internally. See the package comment of this file for the design.
type MutableIndex struct {
	opts MutableOptions
	cur  atomic.Pointer[mutSnapshot]

	mu         sync.Mutex
	cams       []sensor.Camera // authoritative live list, mutation-order semantics
	locs       []camLoc        // parallel to cams
	rebuilding bool
	rebuilds   int64
	done       *sync.Cond // broadcast when a rebuild finishes
}

// NewMutableIndex builds a mutable index whose pristine state is the
// given network.
func NewMutableIndex(net *sensor.Network, opts MutableOptions) *MutableIndex {
	base := NewIndex(net)
	cams := net.Cameras()
	locs := make([]camLoc, len(cams))
	for i := range locs {
		locs[i] = camLoc{base: int32(i), add: -1}
	}
	m := &MutableIndex{opts: opts, cams: cams, locs: locs}
	m.done = sync.NewCond(&m.mu)
	m.cur.Store(&mutSnapshot{base: base, version: opts.BaseVersion})
	return m
}

// Reaim re-points the addressed live cameras and returns the new
// version. Indices address the current live list (Cameras() order); the
// same index may appear more than once (last orientation wins). An
// out-of-range index mutates nothing.
func (m *MutableIndex) Reaim(ops []ReaimOp) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ops) == 0 {
		return m.cur.Load().version, nil
	}
	for _, op := range ops {
		if op.Index < 0 || op.Index >= len(m.cams) {
			return 0, fmt.Errorf("spatial: reaim index %d out of range [0, %d)", op.Index, len(m.cams))
		}
	}
	s := m.cur.Load()
	d := s.delta.clone(s.base.Len())
	for _, op := range ops {
		cam := m.cams[op.Index]
		cam.Orient = geom.NormalizeAngle(op.Orient)
		m.cams[op.Index] = cam
		loc := m.locs[op.Index]
		if loc.base >= 0 {
			// Re-aim of a base camera = remove + add: hide the base slot
			// and serve the re-aimed copy from the overlay.
			d.setRemoved(loc.base)
			d.added = append(d.added, cam)
			m.locs[op.Index] = camLoc{base: -1, add: int32(len(d.added) - 1)}
		} else {
			d.added[loc.add] = cam
		}
	}
	return m.publishLocked(s, d), nil
}

// Remove deletes the addressed live cameras and returns the new
// version. Indices address the current live list and must be unique and
// in range; an invalid list mutates nothing.
func (m *MutableIndex) Remove(indices []int) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(indices) == 0 {
		return m.cur.Load().version, nil
	}
	sorted := append([]int(nil), indices...)
	insertionSortDesc(sorted)
	for k, i := range sorted {
		if i < 0 || i >= len(m.cams) {
			return 0, fmt.Errorf("spatial: remove index %d out of range [0, %d)", i, len(m.cams))
		}
		if k > 0 && sorted[k-1] == i {
			return 0, fmt.Errorf("spatial: remove index %d listed twice", i)
		}
	}
	s := m.cur.Load()
	d := s.delta.clone(s.base.Len())
	// Descending order keeps the not-yet-processed indices stable while
	// earlier entries are deleted.
	for _, i := range sorted {
		loc := m.locs[i]
		if loc.base >= 0 {
			d.setRemoved(loc.base)
		} else {
			d.added = append(d.added[:loc.add], d.added[loc.add+1:]...)
			for k := range m.locs {
				if m.locs[k].add > loc.add {
					m.locs[k].add--
				}
			}
		}
		m.cams = append(m.cams[:i], m.cams[i+1:]...)
		m.locs = append(m.locs[:i], m.locs[i+1:]...)
	}
	return m.publishLocked(s, d), nil
}

// Add appends validated cameras to the live list (positions wrapped,
// orientations normalized — exactly what sensor.NewNetwork would do)
// and returns the new version. An invalid camera mutates nothing.
func (m *MutableIndex) Add(cams []sensor.Camera) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(cams) == 0 {
		return m.cur.Load().version, nil
	}
	for i, c := range cams {
		if err := c.Validate(); err != nil {
			return 0, fmt.Errorf("spatial: add camera %d: %w", i, err)
		}
	}
	s := m.cur.Load()
	t := s.base.Torus()
	d := s.delta.clone(s.base.Len())
	for _, c := range cams {
		c.Pos = t.Wrap(c.Pos)
		c.Orient = geom.NormalizeAngle(c.Orient)
		d.added = append(d.added, c)
		m.cams = append(m.cams, c)
		m.locs = append(m.locs, camLoc{base: -1, add: int32(len(d.added) - 1)})
	}
	return m.publishLocked(s, d), nil
}

// publishLocked installs the mutated overlay as a new snapshot (version
// +1) and kicks the background rebuild when the overlay is past the
// threshold. Caller holds m.mu.
func (m *MutableIndex) publishLocked(prev *mutSnapshot, d *overlay) uint64 {
	if d.size() == 0 {
		// The mutation cancelled the whole overlay (e.g. removing a
		// previously added camera): publish the pure-base fast path.
		d = nil
	}
	next := &mutSnapshot{base: prev.base, delta: d, version: prev.version + 1}
	m.cur.Store(next)
	m.maybeRebuildLocked(next)
	return next.version
}

// maybeRebuildLocked starts the background fold of an oversized overlay
// into a fresh CSR base. Caller holds m.mu.
func (m *MutableIndex) maybeRebuildLocked(s *mutSnapshot) {
	frac := m.opts.RebuildFraction
	if frac < 0 {
		return
	}
	if frac == 0 {
		frac = DefaultRebuildFraction
	}
	if s.delta == nil || m.rebuilding {
		return
	}
	baseLen := s.base.Len()
	if baseLen < 1 {
		baseLen = 1
	}
	if float64(s.delta.size()) <= frac*float64(baseLen) {
		return
	}
	m.rebuilding = true
	cams := append([]sensor.Camera(nil), m.cams...)
	go m.rebuild(cams, s.version)
}

// rebuild constructs a fresh CSR index from the live camera list
// outside the lock and installs it if the version is still the one it
// was built for. A mutation that raced the build makes it stale; the
// retry then builds once more under m.mu, so churn faster than a build
// cannot starve the fold: writers wait at most that one build, and
// readers, who only load the published snapshot, never wait. Rebuilds
// never bump the version — they change the representation, not the
// deployment.
func (m *MutableIndex) rebuild(cams []sensor.Camera, version uint64) {
	t := m.cur.Load().base.Torus()
	fresh := newIndexFromLive(t, cams)
	m.mu.Lock()
	if s := m.cur.Load(); fresh != nil && s.version != version {
		fresh = newIndexFromLive(t, m.cams)
		version = s.version
	}
	m.rebuilding = false
	m.done.Broadcast()
	if fresh == nil {
		m.mu.Unlock()
		return
	}
	m.cur.Store(&mutSnapshot{base: fresh, version: version})
	for i := range m.locs {
		m.locs[i] = camLoc{base: int32(i), add: -1}
	}
	m.rebuilds++
	cb := m.opts.OnRebuild
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// newIndexFromLive builds an Index straight from an already-normalized
// live camera list. The live list went through NewNetwork (or the
// equivalent wrap+normalize in Add/Reaim) already, and both operations
// are idempotent, so routing through NewNetwork again is bit-preserving
// — this helper only skips its re-validation.
func newIndexFromLive(t geom.Torus, cams []sensor.Camera) *Index {
	net, err := sensor.NewNetwork(t, cams)
	if err != nil {
		// Unreachable: every live camera was validated on entry. Keep
		// serving the overlay rather than panicking in a background
		// goroutine.
		return nil
	}
	return NewIndex(net)
}

// ForceRebuild synchronously folds the current overlay into a fresh
// base (a no-op when the overlay is empty). Tests use it to compare
// pre- and post-rebuild states deterministically.
func (m *MutableIndex) ForceRebuild() {
	m.mu.Lock()
	if m.rebuilding {
		m.mu.Unlock()
		m.WaitRebuild()
		return
	}
	s := m.cur.Load()
	if s.delta == nil {
		m.mu.Unlock()
		return
	}
	m.rebuilding = true
	cams := append([]sensor.Camera(nil), m.cams...)
	m.mu.Unlock()
	m.rebuild(cams, s.version)
}

// WaitRebuild blocks until no rebuild is in flight.
func (m *MutableIndex) WaitRebuild() {
	m.mu.Lock()
	for m.rebuilding {
		m.done.Wait()
	}
	m.mu.Unlock()
}

// Rebuilds returns how many rebuilds have been installed.
func (m *MutableIndex) Rebuilds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebuilds
}

// Version returns the current deployment version: BaseVersion at
// construction, +1 per applied mutation batch (Reaim/Remove/Add call).
func (m *MutableIndex) Version() uint64 { return m.cur.Load().version }

// OverlaySize returns the current overlay cost: removed + added
// cameras not yet folded into the base CSR index.
func (m *MutableIndex) OverlaySize() int {
	if s := m.cur.Load(); s.delta != nil {
		return s.delta.size()
	}
	return 0
}

// Len returns the number of live cameras.
func (m *MutableIndex) Len() int { return m.cur.Load().len() }

// Torus returns the operational region.
func (m *MutableIndex) Torus() geom.Torus { return m.cur.Load().base.Torus() }

// Cameras returns a copy of the live camera list, in mutation-order
// semantics: reaimed cameras keep their position, removed ones are
// deleted, added ones append. Mutation indices address this order.
func (m *MutableIndex) Cameras() []sensor.Camera {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]sensor.Camera(nil), m.cams...)
}

// Network materialises the live camera list as a sensor.Network.
func (m *MutableIndex) Network() (*sensor.Network, error) {
	return sensor.NewNetwork(m.Torus(), m.Cameras())
}

// MaxRadius returns the largest live sensing radius (0 when empty).
func (m *MutableIndex) MaxRadius() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := 0.0
	for _, c := range m.cams {
		if c.Radius > r {
			r = c.Radius
		}
	}
	return r
}

// TotalSensingArea returns Σ s_i over the live cameras.
func (m *MutableIndex) TotalSensingArea() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := 0.0
	for _, c := range m.cams {
		s += c.SensingArea()
	}
	return s
}

// Snapshot pins the current state as an immutable View — the read
// surface of a MutableIndex — so a multi-point request (batch query,
// region survey) evaluates every point against one consistent version
// even while mutations land.
func (m *MutableIndex) Snapshot() *View { return &View{s: m.cur.Load()} }

// View is one pinned snapshot of a MutableIndex: an immutable Source
// whose answers never change, regardless of later mutations or
// rebuilds. Obtain with MutableIndex.Snapshot.
type View struct {
	s *mutSnapshot
}

// Version returns the deployment version the view was pinned at.
func (v *View) Version() uint64 { return v.s.version }

// Len returns the view's live camera count.
func (v *View) Len() int { return v.s.len() }

// Torus returns the operational region.
func (v *View) Torus() geom.Torus { return v.s.base.Torus() }

// AppendViewedDirections implements Source.
func (v *View) AppendViewedDirections(dst []float64, p geom.Vec) []float64 {
	return v.s.base.appendViewedDirections(dst, p, v.s.delta)
}

// CountCovering implements Source.
func (v *View) CountCovering(p geom.Vec) int {
	return v.s.base.countCovering(p, v.s.delta)
}

func (s *mutSnapshot) len() int {
	n := s.base.Len()
	if s.delta != nil {
		n += len(s.delta.added) - s.delta.removedCount
	}
	return n
}

// insertionSortDesc sorts a small index list descending without pulling
// in sort's comparator allocations on this path.
func insertionSortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] > a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
