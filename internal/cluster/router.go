package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"fullview/internal/jobs"
	"fullview/internal/retry"
	"fullview/internal/telemetry"
)

// Router defaults, documented in DESIGN §12. They are constants, not
// RouterConfig fields; in-package tests shorten them through the Router
// fields that hold them.
const (
	maxBodyBytes     = 8 << 20               // forwarded body cap, the replica default
	forwardAttempts  = 3                     // attempts per owner forward, the first included
	backoffBase      = 50 * time.Millisecond // jittered exponential backoff between forward
	backoffCap       = time.Second           // attempts when the shard sent no Retry-After
	readyTimeout     = 2 * time.Second       // bound on each per-shard /readyz probe
	readyCacheTTL    = time.Second           // reuse of an aggregated /readyz answer
	breakerThreshold = 5                     // consecutive failures that trip a shard's breaker
	breakerCooldown  = 5 * time.Second       // open time before a half-open probe
)

// RouterConfig parameterises NewRouter.
type RouterConfig struct {
	// Peers is the cluster membership (required).
	Peers *Peers
	// RegisterKey computes the deployment id a POST /v1/deployments
	// body would be assigned, so registrations route to the owner that
	// will journal them. Required: without it the router cannot place
	// registrations (server.DeploymentIDFromRequest is the production
	// implementation).
	RegisterKey func(body []byte) (string, error)
	// Client is the HTTP client used to reach shards (default: a
	// dedicated client with no overall timeout — surveys are long-lived
	// and the replicas enforce their own deadlines).
	Client *http.Client
	// Logger receives operational log lines; nil discards them.
	Logger *log.Logger
}

// Router is the thin stateless fvcd routing tier: it owns no journal,
// no cache, and no compute — it derives the owning shard of every
// request from the consistent-hash ring and forwards, with bounded
// retries, jittered backoff, and the shard's Retry-After honoured
// between attempts. Run any number of router processes behind one
// address; they are interchangeable.
//
// Routed endpoints (everything a client of a single fvcd uses):
//
//	POST   /v1/deployments              → owner of the body's fingerprint
//	GET    /v1/deployments/{id}         → owner of id
//	PATCH  /v1/deployments/{id}         → owner of id
//	POST   /v1/deployments/{id}/query   → owner of id
//	POST   /v1/deployments/{id}/survey  → owner of id
//	POST   /v1/jobs                     → owner of the body's deployment
//	GET    /v1/jobs/{id}                → owner of the deployment the job id names
//	DELETE /v1/jobs/{id}                → owner of the deployment the job id names
//	GET    /v1/jobs/{id}/events         → owner of the deployment the job id names, streamed
//	GET    /readyz                      → per-shard aggregation (starting/ok/degraded rollup)
//	GET    /healthz                     → the router's own liveness
//	GET    /metrics                     → the router's own cluster telemetry
//
// Shard observability endpoints (/metrics, /debug/pprof) are reached
// directly on each replica, not through the router.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	order  []Member // members sorted by name: breaker setup and /readyz order
	client *http.Client

	// The router defaults, held per router so in-package tests can
	// shorten them (the pattern Breaker.now uses).
	maxBody     int64
	attempts    int
	backoffBase time.Duration
	backoffCap  time.Duration
	readyTTL    time.Duration

	reg       *telemetry.Registry
	forwards  map[string]*telemetry.Counter   // by shard
	errs      map[string]*telemetry.Counter   // by shard
	latency   map[string]*telemetry.Histogram // by shard
	retries   *telemetry.Counter
	failovers *telemetry.Counter

	// breakers holds one circuit breaker per shard, fed and consulted
	// by every attempt (whatever the endpoint) to fast-fail writes and
	// steer reads around dead owners.
	breakers map[string]*Breaker

	// readyMu guards the cached /readyz aggregation.
	readyMu      sync.Mutex
	readyCached  []shardReady
	readyProbeAt time.Time

	mux *http.ServeMux
}

// NewRouter builds the routing tier from a membership.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Peers == nil {
		return nil, errors.New("cluster: router needs peers")
	}
	if cfg.RegisterKey == nil {
		return nil, errors.New("cluster: router needs a RegisterKey function")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	ring, err := cfg.Peers.Ring()
	if err != nil {
		return nil, err
	}
	order := append([]Member(nil), cfg.Peers.Members...)
	sort.Slice(order, func(i, j int) bool { return order[i].Name < order[j].Name })

	rt := &Router{
		cfg:         cfg,
		ring:        ring,
		order:       order,
		client:      cfg.Client,
		maxBody:     maxBodyBytes,
		attempts:    forwardAttempts,
		backoffBase: backoffBase,
		backoffCap:  backoffCap,
		readyTTL:    readyCacheTTL,
		reg:         telemetry.New(),
		forwards:    make(map[string]*telemetry.Counter),
		errs:        make(map[string]*telemetry.Counter),
		latency:     make(map[string]*telemetry.Histogram),
		breakers:    make(map[string]*Breaker),
	}
	for _, m := range order {
		b := NewBreaker(breakerThreshold, breakerCooldown)
		rt.breakers[m.Name] = b
		rt.reg.GaugeFunc("fvcd_breaker_state",
			"Per-shard circuit breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(b.State()) },
			telemetry.L("shard", m.Name))
		rt.forwards[m.Name] = rt.reg.Counter("fvcd_cluster_forwards_total",
			"Requests forwarded to a shard (attempts, including retries).",
			telemetry.L("shard", m.Name))
		rt.errs[m.Name] = rt.reg.Counter("fvcd_cluster_shard_errors_total",
			"Forward attempts that failed: transport errors plus retryable 429/5xx shard answers.",
			telemetry.L("shard", m.Name))
		rt.latency[m.Name] = rt.reg.Histogram("fvcd_cluster_forward_duration_ns",
			"Per-attempt forward latency in nanoseconds by shard.",
			nil, telemetry.L("shard", m.Name))
	}
	rt.retries = rt.reg.Counter("fvcd_cluster_retries_total",
		"Forward attempts that were retried after a failure.")
	rt.failovers = rt.reg.Counter("fvcd_cluster_failover_reads_total",
		"Read requests served by a ring-successor replica because the owner was tripped or unreachable.")
	rt.mux = rt.routes()
	return rt, nil
}

// Registry returns the router's metrics registry (for embedding more
// series next to the cluster ones).
func (rt *Router) Registry() *telemetry.Registry { return rt.reg }

// Ring returns the router's placement ring (shared; read-only).
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler returns the router's root handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/deployments", rt.routeByBody(rt.cfg.RegisterKey))
	mux.HandleFunc("GET /v1/deployments/{id}", rt.handleReadByID)
	mux.HandleFunc("PATCH /v1/deployments/{id}", rt.handleByID)
	mux.HandleFunc("POST /v1/deployments/{id}/query", rt.handleReadByID)
	mux.HandleFunc("POST /v1/deployments/{id}/survey", rt.handleReadByID)
	mux.HandleFunc("POST /v1/jobs", rt.routeByBody(jobDeployment))
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJobEvents)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "router", "shards": rt.ring.N()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rt.reg.WritePrometheus(w)
	})
	return mux
}

// routeByBody returns the handler that routes a write to the owner of
// the key keyOf derives from its body: a registration by the deployment
// id the owning shard will assign (RegisterKey computes the same
// fingerprint), a job submission by the deployment it names. Either
// way the request lands on the shard that journals what it creates.
func (rt *Router) routeByBody(keyOf func(body []byte) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := rt.readBody(w, r)
		if err != nil {
			return
		}
		key, err := keyOf(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		rt.forward(w, r, rt.ring.Owner(key), body)
	}
}

// handleByID routes a deployment-scoped *write* by its path id. Writes
// go to the owner and only the owner — mutations have a single writer
// per id, which is what makes version-ordered anti-entropy repair
// sound — so a dead owner means 503 + Retry-After, never a silent
// second writer.
func (rt *Router) handleByID(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	rt.forward(w, r, rt.ring.Owner(r.PathValue("id")), body)
}

// handleReadByID routes a deployment-scoped *read* (inspect, query,
// survey) with failover: reads only need a mirrored copy of the
// journal, so when the owner is tripped or unreachable the request
// walks the id's ring-successor sequence instead of failing.
func (rt *Router) handleReadByID(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	rt.forwardRead(w, r, r.PathValue("id"), body)
}

// jobOwner returns the shard that holds the job the path id names: the
// ring owner of the job's deployment, the only shard that accepts its
// submission (writes never fail over). An id that names no deployment
// is answered 404 here.
func (rt *Router) jobOwner(w http.ResponseWriter, r *http.Request) (string, bool) {
	dep, ok := jobs.DeploymentOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("job %s names no deployment: "+
			"it predates deployment-scoped job ids; ask the shard that ran it", r.PathValue("id")))
		return "", false
	}
	return rt.ring.Owner(dep), true
}

// handleJob routes a job poll or cancel, neither of which has a body,
// to the job's owner.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if shard, ok := rt.jobOwner(w, r); ok {
		rt.forward(w, r, shard, nil)
	}
}

// handleJobEvents proxies the job's SSE stream from its owner in one
// attempt — a live stream cannot be replayed — without buffering.
func (rt *Router) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	shard, ok := rt.jobOwner(w, r)
	if !ok {
		return
	}
	resp, err := rt.attempt(r, shard, nil)
	if err != nil {
		if r.Context().Err() == nil { // a client that left is owed nothing
			rt.unavailable(w, fmt.Sprintf("shard %s: %v", shard, err))
		}
		return
	}
	if fl, ok := w.(http.Flusher); ok {
		w = flushWriter{w, fl}
	}
	relay(w, resp)
}

// flushWriter flushes after every write, so a proxied event stream
// reaches the client as the shard produces it.
type flushWriter struct {
	http.ResponseWriter
	http.Flusher
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.ResponseWriter.Write(p)
	f.Flush()
	return n, err
}

// readBody slurps the request body under the size cap. The body must
// be buffered before forwarding: the key may come from it, and a retry
// must resend it.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, rt.maxBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte cap", tooLarge.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, err
	}
	return body, nil
}

// retryableStatus reports the shard answers worth a router-side retry:
// load shedding and transient upstream failures. 504 is deliberately
// excluded — an expired survey deadline will expire again; the shard's
// answer (which carries the retry-as-job hint) goes back to the
// client.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// shardRequest builds a router→shard request: the shard's base URL
// plus uri, with body (nil for none) and, when ct is set, that
// Content-Type. Every call from the router to a shard is built here.
func (rt *Router) shardRequest(ctx context.Context, shard, method, uri string, body []byte, ct string) (*http.Request, error) {
	base, ok := rt.cfg.Peers.URL(shard)
	if !ok {
		// Unreachable by construction: the ring only names members.
		return nil, fmt.Errorf("no url for shard %s", shard)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+uri, rd)
	if err != nil {
		return nil, err
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return req, nil
}

// errCircuitOpen is attempt's answer when the shard's breaker refused
// the attempt: nothing was sent.
var errCircuitOpen = errors.New("circuit open")

// attempt sends r (with its buffered body) to shard once, gated by the
// shard's breaker, and returns the shard's answer after feeding its
// status to the breaker. Without an answer it returns errCircuitOpen
// when the breaker refused, or the error that stopped the attempt. A
// transport error is charged to the shard (a breaker failure and a
// shard error); one that comes with r's context already done is the
// client leaving, which proves nothing about the shard, so the
// attempt's breaker admission is released and nothing is charged.
func (rt *Router) attempt(r *http.Request, shard string, body []byte) (*http.Response, error) {
	b := rt.breakers[shard]
	if !b.Allow() {
		return nil, errCircuitOpen
	}
	req, err := rt.shardRequest(r.Context(), shard, r.Method, r.URL.RequestURI(), body, r.Header.Get("Content-Type"))
	if err != nil {
		b.Release() // not the shard's fault; don't leak a probe slot
		return nil, err
	}
	t0 := time.Now()
	rt.forwards[shard].Inc()
	resp, err := rt.client.Do(req)
	rt.latency[shard].ObserveSince(t0)
	if err != nil {
		if r.Context().Err() != nil {
			b.Release() // the client left: nothing learned about the shard
		} else {
			b.Failure()
			rt.errs[shard].Inc()
		}
		return nil, err
	}
	rt.breakerObserve(b, resp.StatusCode)
	return resp, nil
}

// forward sends the request to the named shard with bounded retries.
// Transport errors and retryable shard answers (429/502/503) back off
// — honouring the shard's Retry-After when one was sent, jittered
// exponential growth otherwise — and try again; any other answer is
// relayed verbatim. When every attempt fails at the transport the
// router answers 503 with its own jittered Retry-After, so clients of
// the cluster see the same shedding contract as clients of one
// replica. A client that leaves ends the forward at once.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard string, body []byte) {
	var lastErr error
	for attempt := 0; attempt < rt.attempts; attempt++ {
		resp, err := rt.attempt(r, shard, body)
		if errors.Is(err, errCircuitOpen) {
			// Tripped before the first attempt, or mid-loop by this
			// request's own failures: fail fast with the shedding
			// contract instead of burning the remaining retries.
			msg := fmt.Sprintf("shard %s circuit open", shard)
			if lastErr != nil {
				msg += ": " + lastErr.Error()
			}
			rt.unavailable(w, msg)
			return
		}
		if attempt > 0 {
			rt.retries.Inc()
		}
		retryAfter := ""
		switch {
		case err != nil:
			if r.Context().Err() != nil {
				return // client is gone; nobody is listening for a reply
			}
			lastErr = err
			rt.logf("forward %s %s to %s: %v", r.Method, r.URL.Path, shard, err)
		case retryableStatus(resp.StatusCode) && attempt < rt.attempts-1:
			rt.errs[shard].Inc()
			retryAfter = resp.Header.Get("Retry-After")
			discard(resp)
			lastErr = fmt.Errorf("shard %s answered %d", shard, resp.StatusCode)
		default:
			relay(w, resp)
			return
		}
		if attempt < rt.attempts-1 && retry.Sleep(r.Context(), rt.backoff(attempt, retryAfter)) != nil {
			return // client left during the backoff
		}
	}
	rt.unavailable(w, fmt.Sprintf("shard %s unavailable after %d attempts: %v",
		shard, rt.attempts, lastErr))
}

// breakerObserve feeds an HTTP answer's status into a shard's breaker.
// Only 502/503 count as failures — those are "the shard (or its
// upstream) is down" answers. Everything else, including 429 (alive
// and load-shedding) and 5xx application errors, proves the shard is
// reachable and resets the consecutive-failure count.
func (rt *Router) breakerObserve(b *Breaker, code int) {
	if code == http.StatusBadGateway || code == http.StatusServiceUnavailable {
		b.Failure()
	} else {
		b.Success()
	}
}

// forwardRead serves a deployment read with failover: it walks the
// id's ring sequence (owner first, then each successor in the order
// that would inherit the id), one attempt per shard, and relays the
// first real answer. Shards whose breaker is open are skipped without
// an attempt; transport errors and 502/503 feed the breaker and move
// on; a 404 is remembered and the walk continues, because a replica
// that missed the id's mirror records answers 404 while a later
// successor may hold the copy — only when every reachable shard says
// 404 is the last one relayed as the cluster's answer. When nothing is
// reachable at all the router sheds with its own 503 + Retry-After.
//
// Reads never retry one shard (forward's job); redundancy, not
// repetition, is the availability mechanism here.
func (rt *Router) forwardRead(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	seq := rt.ring.Sequence(key)
	var lastErr error
	var notFound *http.Response
	for i, shard := range seq {
		resp, err := rt.attempt(r, shard, body)
		switch {
		case errors.Is(err, errCircuitOpen):
			lastErr = fmt.Errorf("shard %s circuit open", shard)
			continue
		case err != nil:
			if r.Context().Err() != nil {
				return // client is gone
			}
			lastErr = err
			rt.logf("read %s %s via %s: %v", r.Method, r.URL.Path, shard, err)
			continue
		case resp.StatusCode == http.StatusNotFound:
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(data))
			notFound = resp
			lastErr = fmt.Errorf("shard %s answered 404", shard)
			continue
		case retryableStatus(resp.StatusCode):
			rt.errs[shard].Inc()
			discard(resp)
			lastErr = fmt.Errorf("shard %s answered %d", shard, resp.StatusCode)
			continue
		}
		if i > 0 {
			rt.failovers.Inc()
			rt.logf("read %s %s failed over to %s", r.Method, r.URL.Path, shard)
		}
		relay(w, resp)
		return
	}
	if notFound != nil {
		relay(w, notFound)
		return
	}
	rt.unavailable(w, fmt.Sprintf("no shard could serve the read (%d tried): %v", len(seq), lastErr))
}

// relay copies a shard's answer — headers minus the hop-by-hop ones,
// status and body — to the client, and closes it.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if !hopHeaders[k] {
			w.Header()[k] = append(w.Header()[k], vs...)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// discard drains and closes an answer that is not relayed, so its
// connection can be reused.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// unavailable answers the router's own 503 with the cluster-uniform
// jittered Retry-After.
func (rt *Router) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", retry.After())
	writeError(w, http.StatusServiceUnavailable, msg)
}

// backoff computes the wait before the next attempt: the shard's
// Retry-After verbatim when it sent one (fractional seconds, matching
// the replicas' jittered contract), otherwise capped exponential
// growth with ±50% jitter.
func (rt *Router) backoff(attempt int, retryAfter string) time.Duration {
	if d, ok := retry.ParseAfter(retryAfter); ok {
		return d
	}
	return retry.Jitter(retry.Backoff(rt.backoffBase, rt.backoffCap, attempt), 0.5)
}

// Readiness rollup states. ReadyOK/ReadyStarting/ReadyDegraded mirror
// the per-replica states; ReadyDown is the router-only state for a
// cluster with no reachable shard.
const (
	ReadyOK       = "ok"
	ReadyStarting = "starting"
	ReadyDegraded = "degraded"
	ReadyDown     = "down"
)

// shardReady is one shard's readiness as seen by the router.
type shardReady struct {
	Name   string `json:"name"`
	URL    string `json:"url"`
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// handleReadyz aggregates every shard's /readyz into one cluster
// verdict:
//
//	starting — any shard is still replaying its journal (503: hold
//	           traffic until the whole ring answers from warm state)
//	down     — no shard is reachable (503)
//	degraded — some shard is degraded or unreachable (200: the cluster
//	           still serves, with the failing shards named)
//	ok       — every shard is ok (200)
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	shards := rt.cachedShards(r.Context())
	rollup := ReadyOK
	reachable := 0
	for _, s := range shards {
		switch s.Status {
		case ReadyStarting:
			rollup = ReadyStarting
		case ReadyDegraded, "unreachable":
			if rollup == ReadyOK {
				rollup = ReadyDegraded
			}
		}
		if s.Status != "unreachable" {
			reachable++
		}
	}
	if reachable == 0 {
		rollup = ReadyDown
	}
	code := http.StatusOK
	if rollup == ReadyStarting || rollup == ReadyDown {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": rollup, "shards": shards})
}

// cachedShards returns the shard readiness set, reusing the previous
// probe while it is younger than readyCacheTTL. Readiness is polled by
// load balancers and orchestrators, often several at once and often
// sub-second; without the cache every poller's every hit fans out to
// every shard, so the cluster's probe load would be pollers × shards ×
// rate. The cache bounds it to shards per TTL regardless of poller
// count. Probes are serialized under the lock — one slow shard delays
// concurrent /readyz callers rather than multiplying onto the fleet.
func (rt *Router) cachedShards(ctx context.Context) []shardReady {
	rt.readyMu.Lock()
	defer rt.readyMu.Unlock()
	if rt.readyCached != nil && time.Since(rt.readyProbeAt) < rt.readyTTL {
		return rt.readyCached
	}
	// Probe detached from the triggering caller's cancellation: the
	// result is served to every poller for a whole TTL, so one caller
	// arriving with a cancelled or nearly-expired context must not
	// poison the shared cache with failed probes. probeShards bounds
	// each probe with readyTimeout on its own.
	rt.readyCached = rt.probeShards(context.WithoutCancel(ctx))
	rt.readyProbeAt = time.Now()
	return rt.readyCached
}

// probeShards fetches every member's /readyz concurrently.
func (rt *Router) probeShards(ctx context.Context) []shardReady {
	out := make([]shardReady, len(rt.order))
	var wg sync.WaitGroup
	for i, m := range rt.order {
		out[i] = shardReady{Name: m.Name, URL: strings.TrimRight(m.URL, "/")}
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, readyTimeout)
			defer cancel()
			req, err := rt.shardRequest(pctx, m.Name, http.MethodGet, "/readyz", nil, "")
			if err != nil {
				out[i].Status, out[i].Reason = "unreachable", err.Error()
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.errs[m.Name].Inc()
				out[i].Status, out[i].Reason = "unreachable", err.Error()
				return
			}
			defer resp.Body.Close()
			var body struct {
				Status string `json:"status"`
				Reason string `json:"reason"`
			}
			if err := jsonDecode(resp.Body, &body); err != nil || body.Status == "" {
				out[i].Status, out[i].Reason = "unreachable", "unparseable /readyz answer"
				return
			}
			out[i].Status, out[i].Reason = body.Status, body.Reason
		}(i, m)
	}
	wg.Wait()
	return out
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Printf(format, args...)
	}
}

// hopHeaders are the per-connection headers stripped when relaying a
// shard response (RFC 9110 §7.6.1).
var hopHeaders = map[string]bool{
	"Connection":        true,
	"Keep-Alive":        true,
	"Transfer-Encoding": true,
	"Upgrade":           true,
}

// jobDeployment extracts the deployment id a job submission names.
// Only that one field is examined — full validation is the owning
// shard's job.
func jobDeployment(body []byte) (string, error) {
	var req struct {
		Deployment string `json:"deployment"`
	}
	if err := jsonDecode(bytes.NewReader(body), &req); err != nil {
		return "", fmt.Errorf("malformed job submission: %v", err)
	}
	if req.Deployment == "" {
		return "", errors.New("job submission names no deployment")
	}
	return req.Deployment, nil
}
