// Package depcache keeps built deployments warm for the query service:
// an LRU cache from a content fingerprint of the camera network to the
// one artefact built from it — the mutable CSR spatial index, which
// also holds the live camera list and torus — so that registering the
// same network twice reuses the index instead of rebuilding it. An
// entry keeps no other copy of the network.
//
// Construction is single-flight: when several requests register the
// same fingerprint concurrently, exactly one builds the index and the
// rest wait for that build and share its result. Hit, miss, and
// eviction counts are tracked for the /metrics endpoint.
//
// Deployments are mutable: the cached index is a spatial.MutableIndex
// and the Mutate path refreshes an entry in place under a per-entry
// mutation lock. The cache key stays the registration fingerprint (the
// stable lineage id); the pair (fingerprint, Index.Version()) is what
// identifies the served state, and every mutation bumps the version.
package depcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/maphash"
	"math"
	"sync"

	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// Entry is one cached deployment: the mutable spatial index serving it
// and the fingerprint it is stored under. The index is the entry's only
// copy of the deployment — live cameras, torus, and version; no base
// network is kept beside it. Entries are shared between requests; reads
// pin a lock-free Index.Snapshot and per-request checkers are derived
// from that View (core.NewMultiCheckerFromSource). Mutations must go
// through Cache.Mutate so they serialize per deployment.
type Entry struct {
	// Fingerprint is the content hash the entry is cached under — the
	// fingerprint of the *base* registration; mutations advance
	// Index.Version() without changing the id.
	Fingerprint string
	// Index is the mutable CSR spatial index — the artefact whose
	// reconstruction the cache amortises, and the target of Mutate.
	Index *spatial.MutableIndex
}

// Fingerprint returns the content fingerprint of a deployed network:
// a hash over the torus side and every camera's position, orientation,
// radius, aperture, and group, all as exact float64 bits. Two networks
// fingerprint equally iff they would build bit-identical spatial
// indexes, so a deterministic re-deployment (same profile, count, and
// seed) or a re-registration of the same explicit camera list lands on
// the same cache entry.
func Fingerprint(net *sensor.Network) string {
	h := sha256.New()
	var buf [8 * 6]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(net.Torus().Side()))
	h.Write(buf[:8])
	for i := 0; i < net.Len(); i++ {
		c := net.Camera(i)
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(c.Pos.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(c.Pos.Y))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(c.Orient))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(c.Radius))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(c.Aperture))
		binary.LittleEndian.PutUint64(buf[40:], uint64(int64(c.Group)))
		h.Write(buf[:])
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered from the cache, including waiters
	// that shared a single-flight build.
	Hits int64
	// Misses counts lookups that had to build.
	Misses int64
	// Evictions counts entries dropped by the LRU size cap.
	Evictions int64
	// Mutations counts deployment mutations applied through Mutate.
	Mutations int64
	// Len and Cap are the current and maximum entry counts.
	Len, Cap int
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// buildCall is one in-flight single-flight construction.
type buildCall struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is a fixed-capacity LRU of built deployments with single-flight
// construction. Safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used; values are *Entry
	entries   map[string]*list.Element
	building  map[string]*buildCall
	hits      int64
	misses    int64
	evictions int64
	mutations int64

	// mutLocks serializes Mutate calls per deployment (striped by
	// fingerprint hash, so the lock survives eviction and revival of
	// the entry it guards). mutSeed keys the stripe hash.
	mutLocks [64]sync.Mutex
	mutSeed  maphash.Seed
}

// New returns a cache holding at most capacity deployments (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		building: make(map[string]*buildCall),
		mutSeed:  maphash.MakeSeed(),
	}
}

// Mutate runs apply on the entry for fp under the deployment's mutation
// lock, so concurrent mutations of one deployment serialize (and their
// journal order matches their apply order). When fp is not cached,
// resolve is called — still under the lock — to revive it (typically
// from the durable journal); resolve returning false means the
// deployment does not exist and Mutate reports found == false without
// running apply. A nil resolve skips revival. apply's error is returned
// verbatim; only a nil error counts as an applied mutation in Stats.
func (c *Cache) Mutate(fp string, resolve func() (*Entry, bool), apply func(*Entry) error) (found bool, err error) {
	l := c.mutLock(fp)
	l.Lock()
	defer l.Unlock()
	e, ok := c.Get(fp)
	if !ok && resolve != nil {
		e, ok = resolve()
	}
	if !ok {
		return false, nil
	}
	if err := apply(e); err != nil {
		return true, err
	}
	c.mu.Lock()
	c.mutations++
	c.mu.Unlock()
	return true, nil
}

// mutLock maps a fingerprint to its mutation-lock stripe.
func (c *Cache) mutLock(fp string) *sync.Mutex {
	h := maphash.String(c.mutSeed, fp)
	return &c.mutLocks[h%uint64(len(c.mutLocks))]
}

// OverlayCameras sums the overlay sizes (removed + added cameras not
// yet folded into a CSR base) across all cached deployments — the
// overlay-size gauge for /metrics.
func (c *Cache) OverlayCameras() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		total += el.Value.(*Entry).Index.OverlaySize()
	}
	return total
}

// Get returns the cached entry for fp, marking it most recently used.
// A found entry counts as a hit; a missing one counts nothing — absent
// deployments are the caller's 404, not a build miss.
func (c *Cache) Get(fp string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*Entry), true
}

// GetOrBuild returns the entry for fp, building it with build on a
// miss. Concurrent calls for one fingerprint build once: the first
// caller runs build (without holding the cache lock), the rest block
// until it finishes and share the result. hit reports whether this
// caller was served without running build. A failed build caches
// nothing; every waiter receives the build error.
func (c *Cache) GetOrBuild(fp string, build func() (*Entry, error)) (e *Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*Entry), true, nil
	}
	if call, ok := c.building[fp]; ok {
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, call.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return call.entry, true, nil
	}
	call := &buildCall{done: make(chan struct{})}
	c.building[fp] = call
	c.misses++
	c.mu.Unlock()

	call.entry, call.err = build()

	c.mu.Lock()
	delete(c.building, fp)
	if call.err == nil {
		c.insertLocked(fp, call.entry)
	}
	c.mu.Unlock()
	close(call.done)
	return call.entry, false, call.err
}

// insertLocked stores an entry and enforces the size cap. The caller
// holds c.mu.
func (c *Cache) insertLocked(fp string, e *Entry) {
	if el, ok := c.entries[fp]; ok {
		// A racing Get/GetOrBuild cannot have inserted fp (single-flight
		// holds the building slot), but be idempotent regardless.
		c.ll.MoveToFront(el)
		el.Value = e
		return
	}
	c.entries[fp] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*Entry).Fingerprint)
		c.evictions++
	}
}

// Invalidate drops the cached entry for fp, if any, and reports
// whether one was dropped. The next use rebuilds from the durable
// journal. Used by the cluster journal mirror: a mirrored record means
// a peer advanced this deployment's state, so a locally cached entry —
// typically left behind by a mis-routed or pre-rebalance request — is
// stale. Dropping (rather than patching) keeps the mirror path trivial
// and correct: the journal is the source of truth either way. An
// in-flight single-flight build is not affected; callers racing a
// build may re-Invalidate after it lands.
func (c *Cache) Invalidate(fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.entries, fp)
	return true
}

// Len returns the number of cached deployments.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Mutations: c.mutations,
		Len:       c.ll.Len(),
		Cap:       c.cap,
	}
}
