package depcache

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// testNetwork deploys a small heterogeneous network from a seed.
func testNetwork(t *testing.T, seed uint64) *sensor.Network {
	t.Helper()
	profile, err := sensor.ParseProfile("0.3:0.2:0.4,0.7:0.1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 60, rng.New(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestFingerprintDeterministic checks that equal content fingerprints
// equally and different content differently.
func TestFingerprintDeterministic(t *testing.T) {
	a := testNetwork(t, 1)
	b := testNetwork(t, 1) // same seed ⇒ same cameras
	c := testNetwork(t, 2)
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("identical deployments fingerprint differently")
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different deployments share a fingerprint")
	}

	// A one-ulp orientation change must change the fingerprint: the
	// fingerprint promises bit-identical indexes, not approximate ones.
	cams := a.Cameras()
	cams[0].Orient = math.Nextafter(cams[0].Orient, 4)
	mutated, err := sensor.NewNetwork(a.Torus(), cams)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(mutated) {
		t.Error("one-ulp mutation did not change the fingerprint")
	}
}

func buildEntry(net *sensor.Network) func() (*Entry, error) {
	return func() (*Entry, error) {
		return &Entry{Fingerprint: Fingerprint(net), Index: spatial.NewMutableIndex(net, spatial.MutableOptions{})}, nil
	}
}

// TestHitMissEviction walks the cache through its whole counter life:
// build miss, repeat hit, LRU eviction, re-build of the evicted entry.
func TestHitMissEviction(t *testing.T) {
	c := New(2)
	nets := []*sensor.Network{testNetwork(t, 1), testNetwork(t, 2), testNetwork(t, 3)}
	fps := make([]string, len(nets))
	for i, n := range nets {
		fps[i] = Fingerprint(n)
	}

	if _, hit, err := c.GetOrBuild(fps[0], buildEntry(nets[0])); err != nil || hit {
		t.Fatalf("first build: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := c.GetOrBuild(fps[0], buildEntry(nets[0])); err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v, want hit", hit, err)
	}
	if _, hit, _ := c.GetOrBuild(fps[1], buildEntry(nets[1])); hit {
		t.Fatal("distinct fingerprint reported as hit")
	}
	// Touch 0 so 1 is the LRU victim, then insert 2.
	if _, ok := c.Get(fps[0]); !ok {
		t.Fatal("entry 0 vanished")
	}
	if _, hit, _ := c.GetOrBuild(fps[2], buildEntry(nets[2])); hit {
		t.Fatal("entry 2 reported as hit before first build")
	}
	if _, ok := c.Get(fps[1]); ok {
		t.Fatal("LRU victim still cached after eviction")
	}
	if _, ok := c.Get(fps[0]); !ok {
		t.Fatal("recently-used entry was evicted")
	}

	s := c.Stats()
	if s.Len != 2 || s.Cap != 2 {
		t.Errorf("Len/Cap = %d/%d, want 2/2", s.Len, s.Cap)
	}
	if s.Misses != 3 || s.Evictions != 1 {
		t.Errorf("Misses=%d Evictions=%d, want 3 and 1", s.Misses, s.Evictions)
	}
	if s.Hits != 3 { // one GetOrBuild hit + two Get hits
		t.Errorf("Hits=%d, want 3", s.Hits)
	}
	if got, want := s.HitRatio(), 3.0/6.0; got != want {
		t.Errorf("HitRatio=%v, want %v", got, want)
	}
}

// TestBuildErrorNotCached checks that a failed build caches nothing and
// the next lookup retries.
func TestBuildErrorNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("fp", func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get("fp"); ok {
		t.Fatal("failed build left an entry behind")
	}
	net := testNetwork(t, 1)
	if _, hit, err := c.GetOrBuild("fp", buildEntry(net)); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v, want clean miss", hit, err)
	}
}

// TestSingleFlight launches many concurrent registrations of one
// fingerprint and asserts the expensive build ran exactly once while
// every caller got the same entry.
func TestSingleFlight(t *testing.T) {
	c := New(4)
	net := testNetwork(t, 1)
	fp := Fingerprint(net)

	var builds atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	entries := make([]*Entry, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			e, _, err := c.GetOrBuild(fp, func() (*Entry, error) {
				builds.Add(1)
				return buildEntry(net)()
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			entries[i] = e
		}(i)
	}
	close(gate)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1 (single-flight)", got)
	}
	for i, e := range entries {
		if e != entries[0] {
			t.Fatalf("caller %d received a different entry", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Errorf("Misses=%d Hits=%d, want 1 and %d", s.Misses, s.Hits, callers-1)
	}
}

// TestConcurrentMixedUse exercises overlapping builds, hits, and
// evictions under the race detector.
func TestConcurrentMixedUse(t *testing.T) {
	c := New(2)
	nets := make([]*sensor.Network, 4)
	fps := make([]string, 4)
	for i := range nets {
		nets[i] = testNetwork(t, uint64(i+1))
		fps[i] = Fingerprint(nets[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % 4
				if _, _, err := c.GetOrBuild(fps[k], buildEntry(nets[k])); err != nil {
					t.Errorf("GetOrBuild: %v", err)
					return
				}
				c.Get(fps[(k+1)%4])
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 2 {
		t.Fatalf("cache grew past its cap: %d", n)
	}
}

// TestCapFloor checks the minimum capacity of one entry.
func TestCapFloor(t *testing.T) {
	c := New(0)
	for i := 0; i < 3; i++ {
		net := testNetwork(t, uint64(i+1))
		if _, _, err := c.GetOrBuild(Fingerprint(net), buildEntry(net)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", s.Evictions)
	}
}

// TestFingerprintFormat pins the id shape clients see.
func TestFingerprintFormat(t *testing.T) {
	fp := Fingerprint(testNetwork(t, 1))
	if len(fp) != 32 {
		t.Fatalf("fingerprint %q has length %d, want 32 hex chars", fp, len(fp))
	}
	if _, err := fmt.Sscanf(fp, "%x", new([]byte)); err != nil {
		t.Fatalf("fingerprint %q is not hex: %v", fp, err)
	}
}
