// Package server implements fvcd's HTTP/JSON API: a long-running
// full-view-coverage query service over the repository's coverage
// kernel. A deployment (camera network) is registered once, its CSR
// spatial index is built and kept warm in an LRU cache
// (internal/depcache), and point queries and region surveys are then
// answered against the cached index through core.MultiChecker and the
// internal/sweep engine.
//
// # Routes
//
//	POST  /v1/deployments              register a camera network
//	GET   /v1/deployments/{id}         describe a registered deployment (live state + version)
//	PATCH /v1/deployments/{id}         mutate a deployment: reaim / remove / add cameras
//	POST  /v1/deployments/{id}/query   batch point full-view checks over a θ-list
//	POST  /v1/deployments/{id}/survey  region sweep (dense grid or k×k grid)
//	POST  /v1/jobs                     submit an async survey/sweep job
//	GET   /v1/jobs/{id}                poll job status, progress, result
//	DELETE /v1/jobs/{id}               cancel a job (idempotent)
//	GET   /v1/jobs/{id}/events         stream partial results over SSE
//	GET   /healthz                     liveness probe
//	GET   /readyz                      readiness: starting | ok | degraded
//	GET   /metrics                     Prometheus text metrics
//	GET   /debug/pprof/*               standard Go profiling endpoints
//
// # Mutability
//
// Deployments are mutable after registration: PATCH applies a batch of
// re-aims, removals, and additions to the cached spatial.MutableIndex,
// which absorbs the churn in a delta overlay and folds it into a fresh
// CSR base in the background once it outgrows Config.RebuildFraction
// of the base. Every mutation batch bumps the deployment version,
// echoed by every response, and queries and surveys evaluate against
// one pinned snapshot so a batch never straddles a concurrent patch.
// Mutations are journaled (persist-before-apply) when StateDir is set:
// a journal write failure refuses the patch with 503 + Retry-After and
// leaves the served state untouched.
//
// # Jobs
//
// Long-running surveys and θ-sweeps run asynchronously through
// internal/jobs: POST /v1/jobs answers 202 with a job id immediately,
// the compute proceeds band-by-band (one grid row at one θ) on a
// bounded worker pool, and each completed band is fsynced to a per-job
// journal under StateDir/jobs. A killed daemon restarted on the same
// state dir resumes incomplete jobs from their last journaled band and
// finishes them bit-identically to an uninterrupted run; terminal
// results are kept for Config.JobTTL and then garbage-collected
// (polling a collected id answers 410 Gone). Job-worker panics fail
// only their job; job-journal write failures degrade jobs to
// memory-only and surface on /readyz, mirroring the depjournal
// contract.
//
// # Resilience
//
// With Config.StateDir set, registrations are journaled durably
// (internal/depjournal): a crashed or killed daemon restarted on the
// same state dir answers queries for every previously registered id
// bit-identically, and journaled ids also survive LRU eviction (they
// are rebuilt lazily on next use). Handler panics are contained by
// middleware into structured 500s — the admission slot is released, a
// stack goes to the logger, fvcd_panics_total counts the event, and
// the daemon keeps serving. Per-route deadlines (Config.QueryTimeout,
// Config.SurveyTimeout) bound how long one request may hold a slot;
// expiry answers 504. GET /readyz distinguishes startup replay
// ("starting"), normal operation ("ok"), and a failing journal
// ("degraded": queries keep answering from memory, registrations 503).
// The failure paths are exercised deterministically through
// internal/faultinject by the chaos test suite.
//
// # Admission
//
// The /v1 routes pass an admission gate: at most MaxInFlight requests
// execute concurrently; excess requests queue for at most QueueTimeout
// and are then rejected with 429 and a Retry-After header. Health,
// metrics, and pprof bypass the gate so a saturated server can still be
// probed and profiled. Every admitted request's context is wired into
// the coverage kernels — a disconnecting client cancels its sweep
// mid-flight (reported as status 499 in the metrics).
//
// # Drain
//
// Serve/Shutdown wrap net/http's graceful termination: Shutdown stops
// accepting connections and waits for in-flight requests to finish, so
// a SIGTERM never truncates a half-answered query.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"fullview/internal/depcache"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/jobs"
	"fullview/internal/telemetry"
)

// StatusClientClosedRequest is the non-standard status recorded when a
// request's context is cancelled before the response is written (nginx
// convention).
const StatusClientClosedRequest = 499

// Config parameterises the service. The zero value is usable: every
// field falls back to the default documented on it.
type Config struct {
	// CacheSize is the number of deployments kept warm (default 16).
	CacheSize int
	// MaxInFlight bounds concurrently executing /v1 requests
	// (default 4×GOMAXPROCS).
	MaxInFlight int
	// QueueTimeout is how long an over-limit request may wait for
	// admission before being rejected with 429 (default 100ms).
	QueueTimeout time.Duration
	// SurveyWorkers is the worker count for region sweeps
	// (default GOMAXPROCS; requests may lower it per call, never raise).
	// It also caps a /query batch's parallelism, which is further
	// capped at one worker per sweep.BatchSize points: a batch of at
	// most one sweep batch runs inline on the request goroutine.
	SurveyWorkers int
	// MaxBodyBytes caps request body size (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchPoints caps the points of one query request
	// (default 100000).
	MaxBatchPoints int
	// MaxThetas caps the θ-list length of one query request
	// (default 64).
	MaxThetas int
	// MaxCameras caps the size of a registered deployment
	// (default 500000).
	MaxCameras int
	// QueryTimeout bounds the handler execution of register, inspect,
	// and query requests; an expired deadline answers 504 so a wedged
	// request cannot hold its admission slot forever (default 30s;
	// negative disables the deadline).
	QueryTimeout time.Duration
	// SurveyTimeout is the same bound for survey requests, which
	// legitimately run much longer (default 5m; negative disables).
	SurveyTimeout time.Duration
	// StateDir, when non-empty, makes registrations durable: every
	// accepted registration is journaled (append+fsync) under this
	// directory, and a restarted server replays the journal so
	// previously registered deployment ids keep answering.
	StateDir string
	// RebuildFraction is the overlay-to-base size ratio past which a
	// mutated deployment's index is folded into a fresh CSR base in the
	// background (0 selects spatial.DefaultRebuildFraction; negative
	// disables automatic rebuilds).
	RebuildFraction float64
	// JobQueue bounds each job kind's pending queue; a full queue
	// rejects submissions with 429 (default 64).
	JobQueue int
	// JobConcurrency is the number of job workers per kind (default 2).
	JobConcurrency int
	// JobTTL is how long terminal job results are retained for polling
	// before garbage collection (default 15m; negative retains forever).
	JobTTL time.Duration
	// JobThrottle pauses job workers after every completed row group
	// (a job runs its grid in groups of rows, at least two for any grid
	// of two or more rows) — an ops/test pacing knob that makes mid-job
	// crashes reproducible (default 0, no pause).
	JobThrottle time.Duration
	// PeerURLs lists the base URLs of the OTHER replicas of an fvcd
	// cluster (empty means standalone). A clustered server mirrors
	// every journal append to its peers asynchronously, serves its
	// digests and per-deployment snapshots to their anti-entropy
	// rounds, and — when its journal opens empty — warms from the peers
	// with one anti-entropy round before serving. Requires StateDir.
	PeerURLs []string
	// AntiEntropyInterval is the gap between anti-entropy reconciliation
	// rounds, in which a clustered replica diffs its per-deployment
	// journal digests against each peer's GET /v1/internal/digest and
	// pulls any deployment it is missing or behind on. Zero (the
	// default) disables the periodic loop — repairs then run only when
	// driven explicitly (AntiEntropyRound). Only meaningful with
	// PeerURLs.
	AntiEntropyInterval time.Duration
	// Logger receives operational log lines; nil discards them.
	Logger *log.Logger
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.SurveyWorkers <= 0 {
		c.SurveyWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchPoints <= 0 {
		c.MaxBatchPoints = 100_000
	}
	if c.MaxThetas <= 0 {
		c.MaxThetas = 64
	}
	if c.MaxCameras <= 0 {
		c.MaxCameras = 500_000
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.SurveyTimeout == 0 {
		c.SurveyTimeout = 5 * time.Minute
	}
	return c
}

// metrics bundles the pre-registered series the request path touches.
type metrics struct {
	reg             *telemetry.Registry
	queueDepth      *telemetry.Gauge
	inFlight        *telemetry.Gauge
	points          *telemetry.Counter
	surveyPoints    *telemetry.Counter
	pointCost       map[string]*telemetry.Histogram // ns/point, by source
	registered      *telemetry.Counter
	rebuilds        *telemetry.Counter
	panics          *telemetry.Counter
	journalFailures *telemetry.Counter
	latency         map[string]*telemetry.Histogram // per route
	requestHelp     string
}

// Server is the fvcd service: an http.Handler plus the graceful
// serve/drain lifecycle around it. Construct with New; a Server is safe
// for concurrent use.
type Server struct {
	cfg   Config
	cache *depcache.Cache
	m     *metrics
	mux   *http.ServeMux
	start time.Time

	// journal is the durable deployment registry (nil without StateDir);
	// ready is closed when the startup journal replay finishes.
	journal *depjournal.Journal
	ready   chan struct{}

	// jobs is the async job subsystem (always non-nil; journals under
	// StateDir/jobs when StateDir is set, memory-only otherwise).
	jobs *jobs.Manager

	// cluster is the journal-mirroring machinery (nil when standalone).
	cluster *clusterState

	stateMu    sync.Mutex
	journalErr error // last journal-write failure; nil when healthy
	warmErr    error // failed boot warm from the peers; set in New, sticky until restart

	mu sync.Mutex
	hs *http.Server

	// testHookAdmitted, when non-nil, runs after a request passes the
	// admission gate and before its handler starts. Tests use it to hold
	// requests in flight deterministically.
	testHookAdmitted func(route string, r *http.Request)
	// testNoQueryScan makes /query decode through jsonlog.Decode alone,
	// the path FuzzQueryDecode compares the scanner's answers with.
	testNoQueryScan bool
}

// New builds a Server from the configuration. With cfg.StateDir set it
// opens (or replays) the durable deployment journal; an unusable state
// dir is the only error path.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: depcache.New(cfg.CacheSize),
		start: time.Now(),
		ready: make(chan struct{}),
	}
	s.m = s.newMetrics()
	if len(cfg.PeerURLs) > 0 {
		if cfg.StateDir == "" {
			return nil, errors.New("server: cluster peers require StateDir (replicated records are journaled)")
		}
		s.cluster = newClusterState(s)
	}
	if cfg.StateDir != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	}
	if s.cluster != nil {
		s.newAntiEntropy()
	}
	if err := s.openJobs(); err != nil {
		return nil, err
	}
	s.mux = s.routes()
	// Cache warm-up from the journal runs in the background; /readyz
	// reports "starting" until it finishes. Queries for journaled ids
	// are correct throughout (lazy revive), just colder.
	go s.warmup()
	return s, nil
}

// newMetrics registers the service's metric families.
func (s *Server) newMetrics() *metrics {
	reg := telemetry.New()
	m := &metrics{
		reg:        reg,
		queueDepth: reg.Gauge("fvcd_queue_depth", "Requests waiting for admission."),
		inFlight:   reg.Gauge("fvcd_inflight", "Requests currently executing."),
		points: reg.Counter("fvcd_points_evaluated_total",
			"Sample points pushed through the coverage kernel."),
		surveyPoints: reg.Counter("fvcd_survey_points_total",
			"Sample points evaluated by region surveys (inline /survey requests and job row groups)."),
		pointCost: make(map[string]*telemetry.Histogram),
		registered: reg.Counter("fvcd_deployments_registered_total",
			"Deployment registrations accepted (including cache hits)."),
		rebuilds: reg.Counter("fvcd_rebuilds_total",
			"Overlay-to-CSR index rebuilds installed across all deployments."),
		panics: reg.Counter("fvcd_panics_total",
			"Handler panics recovered into 500 responses."),
		journalFailures: reg.Counter("fvcd_journal_write_failures_total",
			"Deployment-journal writes that failed (registration answered 503)."),
		latency:     make(map[string]*telemetry.Histogram),
		requestHelp: "HTTP requests by route and status code.",
	}
	for _, route := range []string{"register", "inspect", "mutate", "query", "survey", "jobs"} {
		m.latency[route] = reg.Histogram("fvcd_request_duration_ns",
			"Request latency in nanoseconds by route.", nil, telemetry.L("route", route))
	}
	for _, source := range []string{"survey", "job", "query"} {
		m.pointCost[source] = reg.Histogram("fvcd_band_ns_per_point",
			"Per-point kernel cost in nanoseconds of one inline survey, job row group (its points counted once per theta) or query batch (evaluate and encode).",
			telemetry.PointCostBuckets, telemetry.L("source", source))
	}
	reg.CounterFunc("fvcd_depcache_hits_total",
		"Deployment-cache lookups served from cache.",
		func() int64 { return s.cache.Stats().Hits })
	reg.CounterFunc("fvcd_depcache_misses_total",
		"Deployment-cache lookups that built a spatial index.",
		func() int64 { return s.cache.Stats().Misses })
	reg.CounterFunc("fvcd_depcache_evictions_total",
		"Deployments evicted by the LRU size cap.",
		func() int64 { return s.cache.Stats().Evictions })
	reg.GaugeFunc("fvcd_depcache_entries", "Deployments currently cached.",
		func() float64 { return float64(s.cache.Stats().Len) })
	reg.GaugeFunc("fvcd_depcache_hit_ratio",
		"Fraction of deployment-cache lookups served from cache.",
		func() float64 { return s.cache.Stats().HitRatio() })
	reg.CounterFunc("fvcd_mutations_total",
		"Deployment mutation batches applied (PATCH requests that changed state).",
		func() int64 { return s.cache.Stats().Mutations })
	reg.GaugeFunc("fvcd_overlay_cameras",
		"Delta-overlay entries (removed + added cameras) awaiting an index rebuild, summed over cached deployments.",
		func() float64 { return float64(s.cache.OverlayCameras()) })
	return m
}

// requests bumps the per-route/per-code request counter.
func (m *metrics) requests(route string, code int) {
	m.reg.Counter("fvcd_requests_total", m.requestHelp,
		telemetry.L("route", route), telemetry.L("code", fmt.Sprintf("%d", code))).Inc()
}

// routes assembles the service mux. /v1 handlers run behind the
// admission gate; observability endpoints do not.
func (s *Server) routes() *http.ServeMux {
	adm := newAdmission(s.cfg.MaxInFlight, s.cfg.QueueTimeout, s.m.queueDepth)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/deployments", s.admitted(adm, "register", s.handleRegister))
	mux.HandleFunc("GET /v1/deployments/{id}", s.admitted(adm, "inspect", s.handleInspect))
	mux.HandleFunc("PATCH /v1/deployments/{id}", s.admitted(adm, "mutate", s.handleMutate))
	mux.HandleFunc("POST /v1/deployments/{id}/query", s.admitted(adm, "query", s.handleQuery))
	mux.HandleFunc("POST /v1/deployments/{id}/survey", s.admitted(adm, "survey", s.handleSurvey))
	mux.HandleFunc("POST /v1/jobs", s.admitted(adm, "jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.admitted(adm, "jobs", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.admitted(adm, "jobs", s.handleJobCancel))
	// The event stream is long-lived by design: it sits off the
	// admission gate (like the other observability endpoints) so an open
	// stream never pins a compute slot.
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)

	// The cluster-internal routes (per-id snapshots, journal mirror,
	// digests) sit off the admission gate like the observability endpoints:
	// replica-to-replica traffic must not compete with client compute
	// for admission slots.
	if s.cluster != nil {
		mux.HandleFunc(snapshotRoute, s.handleSnapshot)
		mux.HandleFunc(mirrorRoute, s.handleMirror)
		mux.HandleFunc(digestRoute, s.handleDigest)
	}

	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.m.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// admitted wraps a /v1 handler with the admission gate, body cap,
// per-route deadline, panic containment, request metrics, and latency
// recording.
func (s *Server) admitted(adm *admission, route string, h http.HandlerFunc) http.HandlerFunc {
	timeout := s.cfg.QueryTimeout
	if route == "survey" {
		timeout = s.cfg.SurveyTimeout
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		if err := adm.acquire(r.Context()); err != nil {
			code := http.StatusTooManyRequests
			msg := "server saturated: admission queue timed out"
			if !errors.Is(err, errSaturated) {
				code = StatusClientClosedRequest
				msg = "request cancelled while queued"
				writeError(w, code, msg)
			} else {
				writeRetryable(w, code, msg)
			}
			s.m.requests(route, code)
			return
		}
		defer adm.release()
		s.m.inFlight.Inc()
		defer s.m.inFlight.Dec()
		if s.testHookAdmitted != nil {
			s.testHookAdmitted(route, r)
		}

		// The per-route deadline bounds how long a request may hold its
		// admission slot: the derived context is wired into the coverage
		// kernels, which abort within one point batch or grid row block
		// of expiry and answer 504.
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		sr := &statusRecorder{ResponseWriter: w}
		s.serveRecovering(route, sr, r, h)
		code := sr.code
		if code == 0 {
			code = http.StatusOK
		}
		s.m.requests(route, code)
		s.m.latency[route].ObserveSince(t0)
	}
}

// serveRecovering invokes h with panic containment: a panicking handler
// becomes a structured 500 (stack to the logger, fvcd_panics_total
// bumped) instead of a killed connection, and — because the admission
// defers in admitted unwind normally — the request slot is always
// released. The non-panicking path adds zero allocations (pinned by
// TestPanicRecoveryZeroAlloc). http.ErrAbortHandler is re-panicked,
// preserving net/http's deliberate-abort convention.
func (s *Server) serveRecovering(route string, w *statusRecorder, r *http.Request, h http.HandlerFunc) {
	defer s.recoverToError(route, w)
	if err := faultinject.Fire(faultinject.Handler); err != nil {
		writeError(w, http.StatusInternalServerError, "injected handler fault: "+err.Error())
		return
	}
	h(w, r)
}

// recoverToError is the deferred half of serveRecovering.
func (s *Server) recoverToError(route string, w *statusRecorder) {
	p := recover()
	if p == nil {
		return
	}
	if p == http.ErrAbortHandler {
		panic(p)
	}
	buf := make([]byte, 8<<10)
	buf = buf[:runtime.Stack(buf, false)]
	s.logf("panic in %s handler (recovered): %v\n%s", route, p, buf)
	s.m.panics.Inc()
	if w.code == 0 {
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("internal error: handler panicked: %v", p))
	}
}

// Handler returns the service's root handler, for embedding in tests or
// a custom http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry, so embedders can add their own
// series next to the service's.
func (s *Server) Registry() *telemetry.Registry { return s.m.reg }

// Cache returns the deployment cache (read its Stats for tests and
// embedders; the server owns mutation).
func (s *Server) Cache() *depcache.Cache { return s.cache }

// Serve accepts connections on ln until Shutdown is called or the
// listener fails. A graceful shutdown returns nil, mirroring the
// convention that drain is a success, not an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.hs == nil {
		s.hs = &http.Server{Handler: s.mux}
	}
	hs := s.hs
	s.mu.Unlock()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// SetTimeouts configures the read/write timeouts of the underlying
// http.Server. Must be called before Serve. A zero value disables the
// respective timeout (surveys of large grids can legitimately take
// longer than any fixed write timeout, so none is imposed by default).
func (s *Server) SetTimeouts(read, write time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hs == nil {
		s.hs = &http.Server{Handler: s.mux}
	}
	s.hs.ReadTimeout = read
	s.hs.WriteTimeout = write
}

// Shutdown gracefully drains the server: no new connections are
// accepted, in-flight requests run to completion (bounded by ctx), and
// the corresponding Serve call returns nil. Calling Shutdown before
// Serve is safe and makes a later Serve return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.hs == nil {
		s.hs = &http.Server{Handler: s.mux}
	}
	hs := s.hs
	s.mu.Unlock()
	err := hs.Shutdown(ctx)
	// Stop the anti-entropy loop first — a reconciliation round applies
	// journal writes, and the journal is about to close.
	if s.cluster != nil && s.cluster.antientropy != nil {
		s.cluster.antientropy.Stop()
	}
	// Stop the mirror workers after the HTTP drain: handlers enqueue
	// mirror batches, so none can arrive once the drain completes.
	// Posts in flight are cancelled and queued batches abandoned —
	// anti-entropy heals the peers, and a drain must not block on an
	// unreachable or hung peer.
	if s.cluster != nil {
		s.cluster.close()
	}
	// Stop the job workers after the HTTP drain (submissions may still
	// arrive during it). Running jobs get no terminal record — a
	// shutdown is not a cancellation — so a restart on the same state
	// dir resumes them from their last journaled band.
	if s.jobs != nil {
		s.jobs.Close()
	}
	// Close the journal only after the drain: in-flight registrations
	// may still append. Close is idempotent, and a crash that skips it
	// loses nothing — every append was already fsynced.
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// logf writes one operational log line when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// statusRecorder captures the status code written by a handler so the
// middleware can label its metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}
