package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fullview/internal/cluster"
	"fullview/internal/server"
)

// Span layers. Shard spans use layerShard+replica index.
const (
	layerClient = iota
	layerRouter
	layerShard
)

// span is one timed interval at a layer boundary; spans of one request
// share an id (the ?bench_span tag), which is what lets the client,
// router and shard spans nest exactly under concurrency.
type span struct {
	id         uint64
	layer      int
	class      int // request class; set on client spans only
	start, end int64
}

// tracer keeps every span in memory; they are written out, if at all,
// after the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanTag is the query parameter that carries a request's span id. The
// router forwards RequestURI verbatim and the handlers ignore query
// strings, so the tag reaches every layer without changing the program.
const spanTag = "bench_span"

// spanID reads the span tag from a raw query string.
func spanID(rawQuery string) (uint64, bool) {
	v, ok := strings.CutPrefix(rawQuery, spanTag+"=")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(v, 10, 64)
	return id, err == nil
}

// wrap times every tagged request h serves as a span at layer.
func (t *tracer) wrap(h http.Handler, layer int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := spanID(r.URL.RawQuery)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{id: id, layer: layer, start: start, end: t.now()})
	})
}

// replica is one fvcd node served over loopback TCP.
type replica struct {
	name string
	srv  *server.Server
	hs   *http.Server
	url  string
}

// topology is the set of servers one workload drives: a single node, or
// three replicas behind a router. base is the URL clients talk to.
type topology struct {
	nodes  []*replica
	ring   *cluster.Ring
	router *cluster.Router
	rhs    *http.Server
	base   string
	root   string // state root of this topology, removed on close
	wg     sync.WaitGroup
}

// bootOptions describe the servers to start.
type bootOptions struct {
	replicas int    // 1 (no router) or more (cluster behind a router)
	stateDir string // root for per-node state dirs; "" runs stateless
	// wrap, when non-nil, wraps each handler (layer says which) before it
	// is served: the tracer's span recording.
	wrap func(h http.Handler, layer int) http.Handler
	// internal, when non-nil, runs after a replica completes a
	// /v1/internal/* request: the replication-lag tracker's trigger.
	internal func(replica int)
}

// boot starts the servers. Every listener is bound first and held, so no
// other socket can take a replica's port between reservation and use.
// Until a replica's server exists its listener drops each connection
// unanswered: the peer-snapshot warm probe of a booting replica takes
// that as "no peer reachable" and cold-starts, as the first boot of a
// cluster does.
func boot(o bootOptions) (*topology, error) {
	t := &topology{}
	gates := make([]*gate, o.replicas)
	for i := range gates {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		gates[i] = &gate{}
		n := &replica{name: fmt.Sprintf("r%d", i), url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: gates[i]}}
		t.nodes = append(t.nodes, n)
		t.serve(n.hs, ln)
	}
	t.base = t.nodes[0].url
	peers := &cluster.Peers{}
	for _, n := range t.nodes {
		peers.Members = append(peers.Members, cluster.Member{Name: n.name, URL: n.url})
	}
	if o.replicas > 1 {
		ring, err := peers.Ring()
		if err != nil {
			t.close()
			return nil, err
		}
		t.ring = ring
	}
	for i, n := range t.nodes {
		cfg := server.Config{}
		if o.stateDir != "" {
			cfg.StateDir = filepath.Join(o.stateDir, n.name)
		}
		for _, m := range t.nodes {
			if o.replicas > 1 && m != n {
				cfg.PeerURLs = append(cfg.PeerURLs, m.url)
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		n.srv = srv
		var h http.Handler = srv.Handler()
		if o.wrap != nil {
			h = o.wrap(h, layerShard+i)
		}
		if o.internal != nil {
			h = afterInternal(h, func() { o.internal(i) })
		}
		gates[i].open(h)
	}
	if o.replicas > 1 {
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Peers:       peers,
			RegisterKey: server.DeploymentIDFromRequest,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.router = rt
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		var h http.Handler = rt.Handler()
		if o.wrap != nil {
			h = o.wrap(h, layerRouter)
		}
		t.rhs = &http.Server{Handler: h}
		t.serve(t.rhs, ln)
		t.base = "http://" + ln.Addr().String()
	}
	return t, nil
}

// gate is a listener's handler before its server exists: it drops every
// connection without an answer until open installs the real handler.
type gate struct{ h atomic.Pointer[http.Handler] }

func (g *gate) open(h http.Handler) { g.h.Store(&h) }

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := g.h.Load()
	if h == nil {
		panic(http.ErrAbortHandler) // net/http closes the connection, unlogged
	}
	(*h).ServeHTTP(w, r)
}

func (t *topology) serve(hs *http.Server, ln net.Listener) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = hs.Serve(ln) // ErrServerClosed once close shuts it down
	}()
}

// afterInternal calls hook after h completes each /v1/internal/*
// request.
func afterInternal(h http.Handler, hook func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasPrefix(r.URL.Path, "/v1/internal/") {
			hook()
		}
	})
}

// owner returns the replica index owning a deployment id (0 on a
// single node).
func (t *topology) owner(id string) int {
	if t.ring == nil {
		return 0
	}
	name := t.ring.Owner(id)
	for i, n := range t.nodes {
		if n.name == name {
			return i
		}
	}
	return 0
}

// waitReady polls every node's /readyz until it reports ok.
func (t *topology) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range t.nodes {
		for {
			status, err := readyStatus(c, n.url)
			if err == nil && status == server.ReadyOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/readyz stuck at %q (%v)", n.url, status, err)
			}
			time.Sleep(pollInterval)
		}
	}
	return nil
}

func readyStatus(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url + "/readyz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.Status, nil
}

// pollInterval paces the set-up's readiness and convergence polls: short
// next to a set-up of a few milliseconds, so polling adds little to it.
const pollInterval = 100 * time.Microsecond

// waitConverged polls every replica's journal digests, in process, until
// all replicas report the same digests for n deployments.
func (t *topology) waitConverged(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var first []byte
		same := true
		for i, node := range t.nodes {
			rec := httptest.NewRecorder()
			node.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cluster.DigestPath, nil))
			if i == 0 {
				first = rec.Body.Bytes()
			} else if !bytes.Equal(rec.Body.Bytes(), first) {
				same = false
			}
		}
		var digests map[string]json.RawMessage
		if same && json.Unmarshal(first, &digests) == nil && len(digests) == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge on %d deployments", n)
		}
		time.Sleep(pollInterval)
	}
}

// flushMirrors waits until every replica has posted or dropped its
// queued mirror batches.
func (t *topology) flushMirrors(ctx context.Context) error {
	for _, n := range t.nodes {
		if err := n.srv.FlushMirror(ctx); err != nil {
			return fmt.Errorf("flush mirror of %s: %w", n.name, err)
		}
	}
	return nil
}

// close stops the router, then every node (HTTP drain, then the
// server's job workers, mirror workers and journal), waits for every
// serve loop to return, and removes the state root.
func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.rhs != nil {
		_ = t.rhs.Shutdown(ctx)
	}
	for _, n := range t.nodes {
		_ = n.hs.Shutdown(ctx)
		if n.srv != nil {
			_ = n.srv.Shutdown(ctx)
		}
	}
	t.wg.Wait()
	if t.root != "" {
		_ = os.RemoveAll(t.root)
	}
}

// lagTracker measures replication lag: from the send of a probe-
// deployment PATCH to the moment every non-owner replica serves the
// version it produces. Visibility is checked through an in-process
// GET /v1/deployments/{id} on each replica's own handler, after every
// /v1/internal/* request a replica completes and on a 1 ms fallback
// poll — so the number does not depend on how replication delivers the
// records, only on when a reader on the replica can see them.
type lagTracker struct {
	now  func() int64
	kick chan struct{}

	mu       sync.Mutex
	id       string
	owner    int
	handlers []http.Handler // set by watch; nil until then
	pending  []*probeWrite
	lags     []float64 // ms
}

type probeWrite struct {
	want uint64
	sent int64
	seen []bool
}

// newLagTracker returns a tracker whose notify is safe to wire into the
// replicas before they boot; watch names what to check once they have.
func newLagTracker(now func() int64) *lagTracker {
	return &lagTracker{now: now, kick: make(chan struct{}, 1)}
}

// watch sets the probe deployment, its owner, and the replicas' own
// (unwrapped) handlers.
func (l *lagTracker) watch(id string, owner int, handlers []http.Handler) {
	l.mu.Lock()
	l.id, l.owner, l.handlers = id, owner, handlers
	l.mu.Unlock()
}

// expect registers a probe write about to be sent that will move the
// probe deployment to version want.
func (l *lagTracker) expect(want uint64, sent int64) {
	l.mu.Lock()
	l.pending = append(l.pending, &probeWrite{want: want, sent: sent, seen: make([]bool, len(l.handlers))})
	l.mu.Unlock()
}

// notify asks for a visibility check soon; it never blocks the replica
// handler that calls it.
func (l *lagTracker) notify() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// run checks visibility on every kick and every millisecond until ctx
// is done.
func (l *lagTracker) run(ctx context.Context) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.kick:
		case <-tick.C:
		}
		l.check()
	}
}

func (l *lagTracker) check() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return
	}
	for r, h := range l.handlers {
		if r == l.owner {
			continue
		}
		v, ok := l.version(h)
		if !ok {
			continue
		}
		for _, p := range l.pending {
			if v >= p.want {
				p.seen[r] = true
			}
		}
	}
	now := l.now()
	kept := l.pending[:0]
	for _, p := range l.pending {
		done := true
		for r, s := range p.seen {
			done = done && (s || r == l.owner)
		}
		if done {
			l.lags = append(l.lags, float64(now-p.sent)/1e6)
		} else {
			kept = append(kept, p)
		}
	}
	l.pending = kept
}

// version reads the probe deployment's version from one replica.
func (l *lagTracker) version(h http.Handler) (uint64, bool) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/deployments/"+l.id, nil)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, false
	}
	var body struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		return 0, false
	}
	return body.Version, true
}

// result returns the measured lags and the probes never seen on every
// replica.
func (l *lagTracker) result() (lags []float64, unseen int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.lags...), len(l.pending)
}
