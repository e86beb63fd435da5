package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testShard is one fake replica: it records hits and answers with a
// programmable handler, defaulting to echoing its own name so tests
// can assert which shard a request landed on.
type testShard struct {
	name    string
	hits    atomic.Int64
	handler atomic.Value // http.HandlerFunc
	srv     *httptest.Server
}

func newTestShard(name string) *testShard {
	s := &testShard{name: name}
	s.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"shard": name, "path": r.URL.Path})
	}))
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		s.handler.Load().(http.HandlerFunc)(w, r)
	}))
	return s
}

func (s *testShard) set(h http.HandlerFunc) { s.handler.Store(h) }

// newTestCluster builds n shards and a router over them. RegisterKey
// routes by the body's "key" field, standing in for the deployment
// fingerprint.
func newTestCluster(t *testing.T, n int, tweak func(*Router)) ([]*testShard, *Router) {
	t.Helper()
	shards := make([]*testShard, n)
	peers := &Peers{}
	for i := range shards {
		shards[i] = newTestShard(fmt.Sprintf("shard-%d", i))
		t.Cleanup(shards[i].srv.Close)
		peers.Members = append(peers.Members, Member{Name: shards[i].name, URL: shards[i].srv.URL})
	}
	rt, err := NewRouter(RouterConfig{
		Peers: peers,
		RegisterKey: func(body []byte) (string, error) {
			var req struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(body, &req); err != nil || req.Key == "" {
				return "", fmt.Errorf("no key in body")
			}
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rt.backoffBase = time.Millisecond
	rt.backoffCap = 4 * time.Millisecond
	// Tests flip shard states between consecutive /readyz hits; a zero
	// TTL re-probes on every hit unless a test opts back in.
	rt.readyTTL = 0
	if tweak != nil {
		tweak(rt)
	}
	return shards, rt
}

func shardByName(shards []*testShard, name string) *testShard {
	for _, s := range shards {
		if s.name == name {
			return s
		}
	}
	return nil
}

func do(t *testing.T, rt *Router, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// TestRouterRoutesByPathID: a deployment-scoped request lands on the
// ring owner of the path id, and only there.
func TestRouterRoutesByPathID(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	for _, id := range []string{"dep-a", "dep-b", "dep-c", "dep-d"} {
		owner := rt.Ring().Owner(id)
		w := do(t, rt, http.MethodGet, "/v1/deployments/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", id, w.Code, w.Body)
		}
		var resp struct{ Shard, Path string }
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Shard != owner {
			t.Errorf("id %s answered by %s, ring owner is %s", id, resp.Shard, owner)
		}
		if resp.Path != "/v1/deployments/"+id {
			t.Errorf("forwarded path %s", resp.Path)
		}
	}
	total := int64(0)
	for _, s := range shards {
		total += s.hits.Load()
	}
	if total != 4 {
		t.Fatalf("4 requests produced %d shard hits", total)
	}
}

// TestRouterRegisterRoutesByKey: registrations land on the owner of
// the id RegisterKey computes from the body; a body RegisterKey
// rejects answers 400 without touching any shard.
func TestRouterRegisterRoutesByKey(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	w := do(t, rt, http.MethodPost, "/v1/deployments", `{"key":"fp-1234"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var resp struct{ Shard string }
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := rt.Ring().Owner("fp-1234"); resp.Shard != want {
		t.Fatalf("registration answered by %s, owner of its key is %s", resp.Shard, want)
	}

	w = do(t, rt, http.MethodPost, "/v1/deployments", `{"nope":true}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad register body: %d, want 400", w.Code)
	}
	if total := shards[0].hits.Load() + shards[1].hits.Load() + shards[2].hits.Load(); total != 1 {
		t.Fatalf("bad body reached a shard (total hits %d, want 1)", total)
	}
}

// TestRouterRetriesHonourRetryAfter: a shard shedding a write with 503
// + Retry-After is retried after that exact wait, not the (much
// larger) configured backoff. (Writes exercise forward's retry loop;
// reads fail over instead of retrying — see the failover tests.)
func TestRouterRetriesHonourRetryAfter(t *testing.T) {
	shards, rt := newTestCluster(t, 1, func(rt *Router) {
		rt.backoffBase = 5 * time.Second // would blow the test deadline if used
		rt.backoffCap = 5 * time.Second
	})
	var calls atomic.Int64
	shards[0].set(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0.01")
			writeError(w, http.StatusServiceUnavailable, "shedding")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"shard": shards[0].name})
	})
	t0 := time.Now()
	w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("after retries: %d %s", w.Code, w.Body)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3", got)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("retries took %s — Retry-After was not honoured over the 5s backoff", el)
	}
}

// TestRouterRelaysFinalRetryableAnswer: when the retry budget is spent
// the shard's last answer goes back verbatim — the router never
// swallows a shard's 503 into its own.
func TestRouterRelaysFinalRetryableAnswer(t *testing.T) {
	shards, rt := newTestCluster(t, 1, func(rt *Router) { rt.attempts = 2 })
	shards[0].set(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.01")
		writeError(w, http.StatusServiceUnavailable, "still shedding")
	})
	w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "still shedding") {
		t.Fatalf("final shard answer not relayed verbatim: %s", w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("relayed 503 lost the shard's Retry-After")
	}
	if got := shards[0].hits.Load(); got != 2 {
		t.Fatalf("%d attempts, want 2", got)
	}
}

// TestRouterUnavailableShard: every attempt failing at the transport
// yields the router's own 503, carrying the cluster-uniform jittered
// Retry-After — the same shedding contract a single replica offers.
func TestRouterUnavailableShard(t *testing.T) {
	shards, rt := newTestCluster(t, 1, func(rt *Router) { rt.attempts = 2 })
	shards[0].srv.Close()
	w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "unavailable after 2 attempts") {
		t.Fatalf("body %s", w.Body)
	}
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("router 503 carries no Retry-After")
	}
	var secs float64
	if _, err := fmt.Sscanf(ra, "%f", &secs); err != nil || secs < 0.8 || secs > 1.2 {
		t.Fatalf("Retry-After %q outside the 1s±20%% contract", ra)
	}
}

// TestRouterDoesNotRetry504: a survey deadline will expire again — the
// 504 (with its retry-as-job hint) must reach the client on the first
// attempt.
func TestRouterDoesNotRetry504(t *testing.T) {
	shards, rt := newTestCluster(t, 1, nil)
	shards[0].set(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusGatewayTimeout, "survey deadline exceeded")
	})
	w := do(t, rt, http.MethodPost, "/v1/deployments/x/survey", `{"grid":64}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504", w.Code)
	}
	if got := shards[0].hits.Load(); got != 1 {
		t.Fatalf("504 was retried: %d attempts", got)
	}
}

// TestRouterJobSubmitRoutesByDeployment: job submissions go to the
// owner of the deployment they name; a submission naming none is the
// router's own 400.
func TestRouterJobSubmitRoutesByDeployment(t *testing.T) {
	_, rt := newTestCluster(t, 3, nil)
	w := do(t, rt, http.MethodPost, "/v1/jobs", `{"kind":"survey","deployment":"dep-7"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var resp struct{ Shard string }
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := rt.Ring().Owner("dep-7"); resp.Shard != want {
		t.Fatalf("job landed on %s, deployment owner is %s", resp.Shard, want)
	}
	if w := do(t, rt, http.MethodPost, "/v1/jobs", `{"kind":"survey"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("deployment-less submit: %d, want 400", w.Code)
	}
}

// jobIDFor makes a well-formed job id for a job of deployment dep, in
// the shape internal/jobs mints.
func jobIDFor(dep string) string { return "job-" + dep + "-0123456789abcdef01234567" }

// TestRouterJobRoutesToOwner: a job poll, cancel or event stream goes
// to the ring owner of the deployment its id names — one router→shard
// request, no probing — for a job on each shard. An id its owner does
// not know is the owner's 404, an id that names no deployment is the
// router's own 404, and a tripped owner breaker is a 503 that sends
// nothing.
func TestRouterJobRoutesToOwner(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	// One job on each shard.
	jobOn := make(map[string]string)
	for i := 0; len(jobOn) < len(shards); i++ {
		dep := fmt.Sprintf("dep-%d", i)
		if owner := rt.Ring().Owner(dep); jobOn[owner] == "" {
			jobOn[owner] = jobIDFor(dep)
		}
	}
	hits := func() (total int64) {
		for _, s := range shards {
			total += s.hits.Load()
		}
		return total
	}
	// requests are the poll, the cancel and the event stream of a job.
	type request struct{ method, path string }
	requests := func(jobID string) []request {
		return []request{
			{http.MethodGet, "/v1/jobs/" + jobID},
			{http.MethodDelete, "/v1/jobs/" + jobID},
			{http.MethodGet, "/v1/jobs/" + jobID + "/events"},
		}
	}
	for _, s := range shards {
		for _, tc := range requests(jobOn[s.name]) {
			before, forwards := hits(), rt.forwards[s.name].Value()
			w := do(t, rt, tc.method, tc.path, "")
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", tc.method, tc.path, w.Code, w.Body)
			}
			var resp struct{ Shard, Path string }
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Shard != s.name || resp.Path != tc.path {
				t.Errorf("%s %s answered by %s for %s, want %s", tc.method, tc.path, resp.Shard, resp.Path, s.name)
			}
			if got := hits() - before; got != 1 {
				t.Errorf("%s %s cost %d shard requests, want 1", tc.method, tc.path, got)
			}
			if got := rt.forwards[s.name].Value() - forwards; got != 1 {
				t.Errorf("%s %s counted %d forwards to %s, want 1", tc.method, tc.path, got, s.name)
			}
		}
	}

	// An id its owner does not know: the owner's 404, relayed.
	unknown := jobIDFor("dep-unknown")
	owner := shardByName(shards, rt.Ring().Owner("dep-unknown"))
	owner.set(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no job "+unknown)
	})
	before := hits()
	if w := do(t, rt, http.MethodGet, "/v1/jobs/"+unknown, ""); w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "no job") {
		t.Fatalf("unknown job: %d %s, want the owner's 404", w.Code, w.Body)
	}
	if got := hits() - before; got != 1 {
		t.Fatalf("unknown job cost %d shard requests, want 1", got)
	}

	// An id that names no deployment never reaches a shard.
	before = hits()
	for _, legacy := range []string{"job-0123456789abcdef01234567", "01HTESTJOB"} {
		for _, path := range []string{"/v1/jobs/" + legacy, "/v1/jobs/" + legacy + "/events"} {
			w := do(t, rt, http.MethodGet, path, "")
			if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "predates deployment-scoped job ids") {
				t.Fatalf("GET %s: %d %s, want the router's legacy-id 404", path, w.Code, w.Body)
			}
		}
	}
	if got := hits() - before; got != 0 {
		t.Fatalf("legacy ids reached the shards (%d requests)", got)
	}

	// A tripped owner breaker: 503 + Retry-After for polls, cancels and
	// streams alike, and nothing sent.
	tripped := shards[2].name
	tripBreaker(rt, tripped)
	before = hits()
	for _, tc := range requests(jobOn[tripped]) {
		w := do(t, rt, tc.method, tc.path, "")
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), tripped) || !strings.Contains(w.Body.String(), "circuit open") {
			t.Fatalf("%s %s on a tripped owner: %d %s, want its circuit-open 503", tc.method, tc.path, w.Code, w.Body)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s: circuit-open 503 carries no Retry-After", tc.method, tc.path)
		}
	}
	if got := hits() - before; got != 0 {
		t.Fatalf("a tripped owner was sent %d requests", got)
	}
}

// TestRouterReadyzRollup drives the aggregation table: ok, starting,
// degraded, unreachable-as-degraded, and all-down.
func TestRouterReadyzRollup(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	setReady := func(s *testShard, status string) {
		s.set(func(w http.ResponseWriter, r *http.Request) {
			code := http.StatusOK
			if status == ReadyStarting {
				code = http.StatusServiceUnavailable
			}
			writeJSON(w, code, map[string]string{"status": status})
		})
	}
	check := func(wantCode int, wantStatus string) {
		t.Helper()
		w := do(t, rt, http.MethodGet, "/readyz", "")
		if w.Code != wantCode {
			t.Fatalf("readyz code %d, want %d (%s)", w.Code, wantCode, w.Body)
		}
		var resp struct {
			Status string       `json:"status"`
			Shards []shardReady `json:"shards"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wantStatus {
			t.Fatalf("rollup %q, want %q (%s)", resp.Status, wantStatus, w.Body)
		}
		if len(resp.Shards) != 3 {
			t.Fatalf("rollup names %d shards, want all 3", len(resp.Shards))
		}
	}

	for _, s := range shards {
		setReady(s, ReadyOK)
	}
	check(http.StatusOK, ReadyOK)

	// The probes sit outside the breaker: a tripped shard is still
	// probed and named in the rollup.
	tripBreaker(rt, shards[1].name)
	hits := shards[1].hits.Load()
	check(http.StatusOK, ReadyOK)
	if shards[1].hits.Load() == hits {
		t.Fatal("readyz skipped the shard whose breaker is open")
	}

	setReady(shards[1], ReadyDegraded)
	check(http.StatusOK, ReadyDegraded)

	setReady(shards[1], ReadyStarting)
	check(http.StatusServiceUnavailable, ReadyStarting)
	w := do(t, rt, http.MethodGet, "/readyz", "")
	if w.Header().Get("Retry-After") == "" {
		// The rollup 503 is retryable like any other.
		t.Log("note: starting rollup carries no Retry-After (router aggregation)")
	}

	setReady(shards[1], ReadyOK)
	shards[2].srv.Close()
	check(http.StatusOK, ReadyDegraded)

	shards[0].srv.Close()
	shards[1].srv.Close()
	check(http.StatusServiceUnavailable, ReadyDown)
}

// TestRouterOwnEndpoints: healthz and metrics are answered by the
// router itself, never forwarded.
func TestRouterOwnEndpoints(t *testing.T) {
	shards, rt := newTestCluster(t, 2, nil)
	// Produce some forwards first so the counters are non-zero.
	do(t, rt, http.MethodGet, "/v1/deployments/abc", "")

	w := do(t, rt, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"role":"router"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
	w = do(t, rt, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	for _, series := range []string{
		"fvcd_cluster_forwards_total",
		"fvcd_cluster_shard_errors_total",
		"fvcd_cluster_forward_duration_ns",
		"fvcd_cluster_retries_total",
	} {
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("metrics output lacks %s", series)
		}
	}
	if total := shards[0].hits.Load() + shards[1].hits.Load(); total != 1 {
		t.Fatalf("own endpoints reached shards (%d hits, want only the 1 forward)", total)
	}
}

// TestRouterBodyTooLarge: the body cap answers 413 at the router; the
// oversized body never reaches a shard.
func TestRouterBodyTooLarge(t *testing.T) {
	shards, rt := newTestCluster(t, 1, func(rt *Router) { rt.maxBody = 64 })
	w := do(t, rt, http.MethodPost, "/v1/deployments/x/query", `{"pad":"`+strings.Repeat("x", 256)+`"}`)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d, want 413", w.Code)
	}
	if shards[0].hits.Load() != 0 {
		t.Fatal("oversized body was forwarded")
	}
}

func TestNewRouterValidation(t *testing.T) {
	key := func([]byte) (string, error) { return "k", nil }
	if _, err := NewRouter(RouterConfig{RegisterKey: key}); err == nil {
		t.Fatal("router built without peers")
	}
	p := &Peers{Members: []Member{{Name: "a", URL: "http://127.0.0.1:1"}}}
	if _, err := NewRouter(RouterConfig{Peers: p}); err == nil {
		t.Fatal("router built without RegisterKey")
	}
	if _, err := NewRouter(RouterConfig{Peers: p, RegisterKey: key}); err != nil {
		t.Fatalf("minimal router: %v", err)
	}
}

// TestRouterEventsStreamUnbuffered: the job event stream is proxied as
// the shard produces it — an event reaches the client while the shard's
// stream is still open.
func TestRouterEventsStreamUnbuffered(t *testing.T) {
	shards, rt := newTestCluster(t, 1, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	release := make(chan struct{})
	defer close(release) // before front.Close, which waits for the stream
	shards[0].set(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			writeJSON(w, http.StatusOK, map[string]string{"state": "running"})
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "data: band 0\n\n")
		w.(http.Flusher).Flush()
		<-release
	})
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(front.URL + "/v1/jobs/job-dep-0123456789abcdef01234567/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || line != "data: band 0\n" {
		t.Fatalf("first event %q (%v), want it before the stream ends", line, err)
	}
}
