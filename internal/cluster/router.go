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

	"fullview/internal/retry"
	"fullview/internal/telemetry"
)

// RouterConfig parameterises NewRouter. Zero fields fall back to the
// documented defaults.
type RouterConfig struct {
	// Peers is the cluster membership (required).
	Peers *Peers
	// RegisterKey computes the deployment id a POST /v1/deployments
	// body would be assigned, so registrations route to the owner that
	// will journal them. Required: without it the router cannot place
	// registrations (server.DeploymentIDFromRequest is the production
	// implementation).
	RegisterKey func(body []byte) (string, error)
	// MaxBodyBytes caps forwarded request bodies (default 8 MiB,
	// matching the replica default).
	MaxBodyBytes int64
	// Retries is the total number of attempts per forward, including
	// the first (default 3).
	Retries int
	// BackoffBase and BackoffCap bound the jittered exponential backoff
	// between attempts when the shard gave no Retry-After (defaults
	// 50ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// ReadyTimeout bounds each per-shard /readyz probe during
	// aggregation (default 2s).
	ReadyTimeout time.Duration
	// ReadyCacheTTL is how long an aggregated /readyz answer is reused
	// before shards are probed again, so a tight readiness poller (a
	// load balancer, an orchestrator, several of each) cannot amplify
	// its poll rate onto every shard. Default 1s; negative disables
	// caching.
	ReadyCacheTTL time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// shard's circuit breaker (default 5); BreakerCooldown is how long
	// a tripped breaker rejects before admitting a half-open probe
	// (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
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
//	GET    /v1/jobs/{id}                → located by scatter (job ids are shard-local)
//	DELETE /v1/jobs/{id}                → located by scatter
//	GET    /v1/jobs/{id}/events         → located by scatter, then streamed
//	GET    /readyz                      → per-shard aggregation (starting/ok/degraded rollup)
//	GET    /healthz                     → the router's own liveness
//	GET    /metrics                     → the router's own cluster telemetry
//
// Shard observability endpoints (/metrics, /debug/pprof) are reached
// directly on each replica, not through the router.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	order  []Member // scatter order: members sorted by name
	client *http.Client

	reg       *telemetry.Registry
	forwards  map[string]*telemetry.Counter   // by shard
	errs      map[string]*telemetry.Counter   // by shard
	latency   map[string]*telemetry.Histogram // by shard
	retries   *telemetry.Counter
	failovers *telemetry.Counter

	// breakers holds one circuit breaker per shard; breaker outcomes
	// are fed by every forward attempt (whatever the endpoint), and
	// consulted to fast-fail writes and steer reads around dead owners.
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
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 2 * time.Second
	}
	if cfg.ReadyCacheTTL == 0 {
		cfg.ReadyCacheTTL = time.Second
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
		cfg:      cfg,
		ring:     ring,
		order:    order,
		client:   cfg.Client,
		reg:      telemetry.New(),
		forwards: make(map[string]*telemetry.Counter),
		errs:     make(map[string]*telemetry.Counter),
		latency:  make(map[string]*telemetry.Histogram),
		breakers: make(map[string]*Breaker),
	}
	for _, m := range order {
		b := NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
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
	mux.HandleFunc("POST /v1/deployments", rt.handleRegister)
	mux.HandleFunc("GET /v1/deployments/{id}", rt.handleReadByID)
	mux.HandleFunc("PATCH /v1/deployments/{id}", rt.handleByID)
	mux.HandleFunc("POST /v1/deployments/{id}/query", rt.handleReadByID)
	mux.HandleFunc("POST /v1/deployments/{id}/survey", rt.handleReadByID)
	mux.HandleFunc("POST /v1/jobs", rt.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobScatter)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJobScatter)
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

// handleRegister routes a registration by computing the deployment id
// it would be assigned — the same fingerprint the owning shard will
// compute — so a registration always lands on the shard that owns its
// id.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	key, err := rt.cfg.RegisterKey(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.forward(w, r, rt.ring.Owner(key), body)
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

// handleJobSubmit routes a job submission by the deployment it names,
// so a job runs on the shard that owns (and has journaled) its
// deployment.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	key, err := jobDeployment(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.forward(w, r, rt.ring.Owner(key), body)
}

// handleJobScatter locates a job by trying every shard: job ids are
// generated by the shard that accepted the submission, so the router
// holds no id→shard map (it is stateless by design). Shards answer 404
// for ids they do not know; the first non-404 answer is authoritative.
// The scatter order is deterministic (members by name) so repeated
// polls of one id trace the same path.
func (rt *Router) handleJobScatter(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	shard, found := rt.locateJob(r.Context(), r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no shard knows job %s", r.PathValue("id")))
		return
	}
	rt.forward(w, r, shard, body)
}

// handleJobEvents locates the job's shard, then proxies the SSE stream
// without buffering or retries — a live stream cannot be replayed.
func (rt *Router) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	shard, found := rt.locateJob(r.Context(), r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no shard knows job %s", r.PathValue("id")))
		return
	}
	base, _ := rt.cfg.Peers.URL(shard)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+r.URL.RequestURI(), nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rt.forwards[shard].Inc()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.errs[shard].Inc()
		rt.unavailable(w, fmt.Sprintf("shard %s: %v", shard, err))
		return
	}
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 4<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// locateJob probes shards (GET /v1/jobs/{id}) in scatter order and
// returns the first one that does not answer 404. Unreachable shards
// are skipped: a job on a live shard is still found, and an id whose
// only possible home is down reports not-found (the client retries and
// finds it once the shard is back).
func (rt *Router) locateJob(ctx context.Context, id string) (shard string, found bool) {
	for _, m := range rt.order {
		probe, err := http.NewRequestWithContext(ctx, http.MethodGet,
			strings.TrimRight(m.URL, "/")+"/v1/jobs/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(probe)
		if err != nil {
			rt.errs[m.Name].Inc()
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			return m.Name, true
		}
	}
	return "", false
}

// readBody slurps the request body under the size cap. The body must
// be buffered before forwarding: the key may come from it, and a retry
// must resend it.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
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

// forward sends the request to the named shard with bounded retries.
// Transport errors and retryable shard answers (429/502/503) back off
// — honouring the shard's Retry-After when one was sent, jittered
// exponential growth otherwise — and try again; any other answer is
// relayed verbatim. When every attempt fails at the transport the
// router answers 503 with its own jittered Retry-After, so clients of
// the cluster see the same shedding contract as clients of one
// replica.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard string, body []byte) {
	base, ok := rt.cfg.Peers.URL(shard)
	if !ok {
		// Unreachable by construction: Owner only returns ring members.
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("no url for shard %s", shard))
		return
	}
	url := base + r.URL.RequestURI()
	b := rt.breakers[shard]
	var lastErr error
	for attempt := 0; attempt < rt.cfg.Retries; attempt++ {
		if !b.Allow() {
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
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
		if err != nil {
			b.Release() // not the shard's fault; don't leak a probe slot
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		t0 := time.Now()
		rt.forwards[shard].Inc()
		resp, err := rt.client.Do(req)
		rt.latency[shard].ObserveSince(t0)
		if err != nil {
			b.Failure()
			rt.errs[shard].Inc()
			lastErr = err
			rt.logf("forward %s %s to %s: %v", r.Method, r.URL.Path, shard, err)
			if r.Context().Err() != nil {
				return // client is gone; nobody is listening for a reply
			}
			retry.Sleep(r.Context(), rt.backoff(attempt, ""))
			continue
		}
		rt.breakerObserve(b, resp.StatusCode)
		if retryableStatus(resp.StatusCode) && attempt < rt.cfg.Retries-1 {
			rt.errs[shard].Inc()
			retryAfter := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered %d", shard, resp.StatusCode)
			retry.Sleep(r.Context(), rt.backoff(attempt, retryAfter))
			continue
		}
		defer resp.Body.Close()
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	rt.unavailable(w, fmt.Sprintf("shard %s unavailable after %d attempts: %v",
		shard, rt.cfg.Retries, lastErr))
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
	var notFoundBody []byte
	for i, shard := range seq {
		b := rt.breakers[shard]
		if !b.Allow() {
			lastErr = fmt.Errorf("shard %s circuit open", shard)
			continue
		}
		base, ok := rt.cfg.Peers.URL(shard)
		if !ok {
			b.Release()
			continue
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), rd)
		if err != nil {
			b.Release() // not the shard's fault; don't leak a probe slot
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		t0 := time.Now()
		rt.forwards[shard].Inc()
		resp, err := rt.client.Do(req)
		rt.latency[shard].ObserveSince(t0)
		if err != nil {
			b.Failure()
			rt.errs[shard].Inc()
			lastErr = err
			rt.logf("read %s %s via %s: %v", r.Method, r.URL.Path, shard, err)
			if r.Context().Err() != nil {
				return // client is gone
			}
			continue
		}
		rt.breakerObserve(b, resp.StatusCode)
		switch {
		case resp.StatusCode == http.StatusNotFound:
			notFoundBody, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			notFound = resp
			lastErr = fmt.Errorf("shard %s answered 404", shard)
			continue
		case retryableStatus(resp.StatusCode):
			rt.errs[shard].Inc()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered %d", shard, resp.StatusCode)
			continue
		}
		defer resp.Body.Close()
		if i > 0 {
			rt.failovers.Inc()
			rt.logf("read %s %s failed over to %s", r.Method, r.URL.Path, shard)
		}
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	if notFound != nil {
		copyHeader(w.Header(), notFound.Header)
		w.WriteHeader(http.StatusNotFound)
		w.Write(notFoundBody)
		return
	}
	rt.unavailable(w, fmt.Sprintf("no shard could serve the read (%d tried): %v", len(seq), lastErr))
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
	return retry.Jitter(retry.Backoff(rt.cfg.BackoffBase, rt.cfg.BackoffCap, attempt), 0.5)
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
// probe while it is younger than ReadyCacheTTL. Readiness is polled by
// load balancers and orchestrators, often several at once and often
// sub-second; without the cache every poller's every hit fans out to
// every shard, so the cluster's probe load would be pollers × shards ×
// rate. The cache bounds it to shards per TTL regardless of poller
// count. Probes are serialized under the lock — one slow shard delays
// concurrent /readyz callers rather than multiplying onto the fleet.
func (rt *Router) cachedShards(ctx context.Context) []shardReady {
	if rt.cfg.ReadyCacheTTL < 0 {
		return rt.probeShards(ctx)
	}
	rt.readyMu.Lock()
	defer rt.readyMu.Unlock()
	if rt.readyCached != nil && time.Since(rt.readyProbeAt) < rt.cfg.ReadyCacheTTL {
		return rt.readyCached
	}
	// Probe detached from the triggering caller's context: the result is
	// served to every poller for a whole TTL, so one caller arriving with
	// a cancelled or nearly-expired context must not poison the shared
	// cache with failed probes. probeShards bounds each probe with
	// ReadyTimeout on its own.
	rt.readyCached = rt.probeShards(context.Background())
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
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.ReadyTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, out[i].URL+"/readyz", nil)
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
			if err := readJSON(resp.Body, &body); err != nil || body.Status == "" {
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

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		if hopHeaders[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// jobDeployment extracts the deployment id a job submission names.
// Only that one field is examined — full validation is the owning
// shard's job.
func jobDeployment(body []byte) (string, error) {
	var req struct {
		Deployment string `json:"deployment"`
	}
	if err := readJSON(bytes.NewReader(body), &req); err != nil {
		return "", fmt.Errorf("malformed job submission: %v", err)
	}
	if req.Deployment == "" {
		return "", errors.New("job submission names no deployment")
	}
	return req.Deployment, nil
}

func readJSON(r io.Reader, v any) error {
	return jsonDecode(r, v)
}
