package server

// Chaos suite: drives the server through injected faults (panics,
// journal write failures, slow handlers, kill-and-restart) and asserts
// the resilience contract — panics become structured 500s without
// leaking admission slots, journal failure degrades registration but
// never queries, and a restart on the same state dir answers
// bit-identically. Every fault goes through internal/faultinject, so
// nothing here is timing-dependent beyond deliberate deadlines.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fullview/internal/faultinject"
	"fullview/internal/retry"
)

// do drives one request through the handler directly (no TCP), which
// keeps fault windows deterministic.
func do(t testing.TB, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, r))
	return rec
}

// decode unmarshals a recorder's JSON body.
func decode(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}

// metricLine returns the /metrics line starting with prefix, or "".
func metricLine(t *testing.T, h http.Handler, prefix string) string {
	t.Helper()
	rec := do(t, h, "GET", "/metrics", nil)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// waitReadyz polls /readyz until it reports want (or the deadline).
func waitReadyz(t *testing.T, h http.Handler, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var body struct {
			Status string `json:"status"`
			Reason string `json:"reason"`
		}
		rec := do(t, h, "GET", "/readyz", nil)
		decode(t, rec, &body)
		if body.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz stuck at %q (reason %q), want %q", body.Status, body.Reason, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPanicContainment injects a handler panic and asserts the panic
// contract: structured 500, fvcd_panics_total bumped, and — with
// MaxInFlight: 1 — the very next request is admitted and served,
// proving the admission slot unwound with the panic.
func TestPanicContainment(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNew(t, Config{MaxInFlight: 1, QueueTimeout: 5 * time.Millisecond})
	h := srv.Handler()

	remove := faultinject.Set(faultinject.Handler, func() error {
		panic("injected chaos panic")
	})
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 20, 1)))
	remove()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	decode(t, rec, &e)
	if !strings.Contains(e.Error, "panicked") {
		t.Fatalf("500 body %q does not name the panic", e.Error)
	}
	if line := metricLine(t, h, "fvcd_panics_total"); line != "fvcd_panics_total 1" {
		t.Fatalf("panic counter line = %q, want fvcd_panics_total 1", line)
	}

	// The only admission slot must have been released: this would 429
	// after the 5ms queue timeout if the panic leaked it.
	rec = do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 20, 1)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("request after panic answered %d, want 201: %s", rec.Code, rec.Body.String())
	}
}

// TestJournalWriteFailureDegrades wounds the journal and asserts the
// degraded contract: registration 503s with a clear body, /readyz says
// degraded, queries for already-registered deployments keep answering,
// and the first successful write after the fault clears heals the
// state (including re-registering the very deployment that failed,
// since a non-durable registration is never cached).
func TestJournalWriteFailureDegrades(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNew(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)

	var reg registerResponse
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 30, 1)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)

	remove := faultinject.Set(faultinject.JournalWrite, faultinject.Error(errors.New("disk on fire")))
	rec = do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 30, 2)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("register with failing journal answered %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	decode(t, rec, &e)
	if !strings.Contains(e.Error, "not durable") {
		t.Fatalf("503 body %q does not explain durability", e.Error)
	}

	var ready struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	decode(t, do(t, h, "GET", "/readyz", nil), &ready)
	if ready.Status != ReadyDegraded || !strings.Contains(ready.Reason, "journal") {
		t.Fatalf("readyz = %+v, want degraded with a journal reason", ready)
	}

	// Memory-only operation: the earlier deployment still answers.
	q := []byte(`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`)
	if rec := do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q); rec.Code != http.StatusOK {
		t.Fatalf("query during degraded state answered %d: %s", rec.Code, rec.Body.String())
	}

	// Heal the fault: the failed registration retries cleanly (it was
	// never cached), and readyz recovers on the successful write.
	remove()
	rec = do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 30, 2)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register after healing answered %d: %s", rec.Code, rec.Body.String())
	}
	var reg2 registerResponse
	decode(t, rec, &reg2)
	if reg2.Cached {
		t.Fatal("failed registration was cached despite the journal refusing it")
	}
	waitReadyz(t, h, ReadyOK)

	if line := metricLine(t, h, "fvcd_journal_write_failures_total"); line != "fvcd_journal_write_failures_total 1" {
		t.Fatalf("journal failure counter = %q, want 1", line)
	}
}

// TestRestartBitIdentical is kill -9 in miniature: a server journals
// two registrations (explicit cameras and a recipe), answers a query,
// and is abandoned without any flush beyond the per-append fsync; a
// second server on the same state dir must answer the same query
// byte-for-byte and know both ids.
func TestRestartBitIdentical(t *testing.T) {
	state := t.TempDir()
	q := []byte(`{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9}]}`)

	srv1 := mustNew(t, Config{StateDir: state})
	h1 := srv1.Handler()
	waitReadyz(t, h1, ReadyOK)
	var regCams, regRecipe registerResponse
	rec := do(t, h1, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 40, 9)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register cameras: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &regCams)
	rec = do(t, h1, "POST", "/v1/deployments", []byte(`{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":50,"seed":7}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register recipe: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &regRecipe)
	want1 := do(t, h1, "POST", "/v1/deployments/"+regCams.ID+"/query", q).Body.Bytes()
	want2 := do(t, h1, "POST", "/v1/deployments/"+regRecipe.ID+"/query", q).Body.Bytes()
	// No Shutdown: the journal's append-time fsync is the only thing a
	// kill -9 would have left us, so it is all this test relies on.

	srv2 := mustNew(t, Config{StateDir: state})
	h2 := srv2.Handler()
	waitReadyz(t, h2, ReadyOK)
	got1 := do(t, h2, "POST", "/v1/deployments/"+regCams.ID+"/query", q)
	got2 := do(t, h2, "POST", "/v1/deployments/"+regRecipe.ID+"/query", q)
	if got1.Code != http.StatusOK || got2.Code != http.StatusOK {
		t.Fatalf("restarted server answered %d/%d for journaled ids", got1.Code, got2.Code)
	}
	if !bytes.Equal(got1.Body.Bytes(), want1) {
		t.Errorf("explicit-camera query diverged across restart:\n pre: %s\npost: %s", want1, got1.Body.Bytes())
	}
	if !bytes.Equal(got2.Body.Bytes(), want2) {
		t.Errorf("recipe query diverged across restart:\n pre: %s\npost: %s", want2, got2.Body.Bytes())
	}
	if err := srv2.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestReviveAfterEviction pins that journal-backed ids outlive the LRU:
// with a one-entry cache, registering a second deployment evicts the
// first, but its id must still answer (rebuilt from the journal).
func TestReviveAfterEviction(t *testing.T) {
	srv := mustNew(t, Config{StateDir: t.TempDir(), CacheSize: 1})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)

	var first registerResponse
	decode(t, do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 25, 1))), &first)
	do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 25, 2)))

	q := []byte(`{"thetasPi":[0.25],"points":[{"x":0.4,"y":0.6}]}`)
	rec := do(t, h, "POST", "/v1/deployments/"+first.ID+"/query", q)
	if rec.Code != http.StatusOK {
		t.Fatalf("evicted-but-journaled id answered %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestReadyzStarting holds the startup replay open with an injected
// block and asserts /readyz answers 503 "starting" until it finishes.
func TestReadyzStarting(t *testing.T) {
	defer faultinject.Reset()
	gate := make(chan struct{})
	remove := faultinject.Set(faultinject.JournalReplay, func() error {
		<-gate
		return nil
	})
	defer remove()

	srv := mustNew(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	rec := do(t, h, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during replay answered %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var ready struct {
		Status string `json:"status"`
	}
	decode(t, rec, &ready)
	if ready.Status != ReadyStarting {
		t.Fatalf("readyz status = %q, want %q", ready.Status, ReadyStarting)
	}
	close(gate)
	waitReadyz(t, h, ReadyOK)
}

// TestQueryDeadline504 gives the query route a short deadline, injects
// latency past it, and asserts the request answers 504 (and is counted
// as one) — for a one-point batch and for a batch large enough to span
// several sweep workers.
func TestQueryDeadline504(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNew(t, Config{QueryTimeout: 20 * time.Millisecond, SurveyWorkers: 3})
	h := srv.Handler()

	var reg registerResponse
	decode(t, do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 30, 4))), &reg)

	remove := faultinject.Set(faultinject.QueryLatency, faultinject.Sleep(60*time.Millisecond))
	defer remove()
	one := []byte(`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`)
	points := make([]pointJSON, 700)
	for i := range points {
		points[i] = pointJSON{X: float64(i) / 700, Y: 0.5}
	}
	many, err := json.Marshal(queryRequest{ThetasPi: []float64{0.25, 0.5}, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range [][]byte{one, many} {
		rec := do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("slow query %d answered %d, want 504: %s", i, rec.Code, rec.Body.String())
		}
	}
	line := metricLine(t, h, `fvcd_requests_total{code="504",route="query"}`)
	if line == "" {
		line = metricLine(t, h, `fvcd_requests_total{route="query",code="504"}`)
	}
	if !strings.HasSuffix(line, " 2") {
		t.Fatalf("want 2 504 query requests counted: %q", line)
	}
}

// TestTimeoutDefaults pins the Config contract: zero timeouts take the
// documented defaults, negative means "no deadline" and must survive
// defaulting untouched.
func TestTimeoutDefaults(t *testing.T) {
	srv := mustNew(t, Config{})
	if srv.cfg.QueryTimeout != 30*time.Second {
		t.Errorf("default QueryTimeout = %v, want 30s", srv.cfg.QueryTimeout)
	}
	if srv.cfg.SurveyTimeout != 5*time.Minute {
		t.Errorf("default SurveyTimeout = %v, want 5m", srv.cfg.SurveyTimeout)
	}
	srv = mustNew(t, Config{QueryTimeout: -1, SurveyTimeout: -1})
	if srv.cfg.QueryTimeout != -1 || srv.cfg.SurveyTimeout != -1 {
		t.Errorf("negative timeouts rewritten to %v/%v, want both -1",
			srv.cfg.QueryTimeout, srv.cfg.SurveyTimeout)
	}
}

// TestPanicRecoveryZeroAlloc pins that the panic-containment wrapper is
// free on the path that matters: a handler that does not panic pays
// zero allocations for the protection.
func TestPanicRecoveryZeroAlloc(t *testing.T) {
	srv := mustNew(t, Config{})
	sr := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	req := httptest.NewRequest("POST", "/v1/deployments/x/query", nil)
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	allocs := testing.AllocsPerRun(200, func() {
		srv.serveRecovering("query", sr, req, noop)
	})
	if allocs != 0 {
		t.Fatalf("non-panicking path allocates %.1f per request, want 0", allocs)
	}
}

// TestRetryAfterJitter pins the Retry-After contract shared by the 429
// and journal-503 paths: a 1-second base jittered ±20%, emitted as
// parseable fractional seconds.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := retry.After()
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("Retry-After %q is not a number: %v", s, err)
		}
		if v < 0.80 || v > 1.20 {
			t.Fatalf("Retry-After %q outside the ±20%% band around 1s", s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatal("Retry-After never varied across 200 draws; jitter missing")
	}
}
