// Command fvcd is the full-view-coverage query daemon: a long-running
// HTTP/JSON service that keeps registered camera deployments' spatial
// indexes warm and answers point full-view queries and region surveys
// against them.
//
// Usage:
//
//	fvcd -addr :8080
//	fvcd -addr :8080 -state /var/lib/fvcd
//	fvcd -addr 127.0.0.1:0 -cache 32 -max-inflight 128
//	fvcd -addr :8081 -state /var/lib/fvcd-a -cluster peers.json -self a
//	fvcd -addr :8080 -route -cluster peers.json
//
// # Cluster modes
//
// With -cluster peers.json and -self NAME, the daemon runs as one
// replica of an fvcd cluster: deployments are placed on replicas by a
// consistent-hash ring over the peers file's member names, every
// journal append is mirrored asynchronously to the other members, and a
// replica whose journal opens empty warms from its peers with one
// anti-entropy round (per-deployment snapshots pulled over
// GET /v1/internal/snapshot?id=) before serving. -state is required in
// this mode. Add
// -antientropy DURATION to run the self-healing reconciler: at each
// interval the replica compares per-deployment journal digests with
// its peers and pulls any deployment it is missing or behind on,
// repairing divergence left by dropped mirrors, crashes, or disk loss.
//
// With -route (plus -cluster), the process is instead a thin stateless
// router: it owns no journal and no cache, and forwards every client
// request to the owning shard with bounded retries, jittered backoff,
// and honoured Retry-After. GET /readyz on the router aggregates every
// shard's readiness into a cluster rollup. Run any number of routers;
// they are interchangeable. See README "Running a cluster".
//
// With -state, registrations and mutations are journaled durably: a
// daemon killed at any instant (including kill -9) and restarted on the
// same state dir answers queries for every previously registered
// deployment id bit-identically, with every applied PATCH replayed in
// order. GET /readyz reports "starting" during the startup replay, "ok"
// in normal operation, and "degraded" when journal writes fail (queries
// keep working from memory; registrations and patches answer 503).
//
// API (see README "Running the service" for curl examples):
//
//	POST  /v1/deployments              register a camera network
//	GET   /v1/deployments/{id}         describe a registered deployment
//	PATCH /v1/deployments/{id}         mutate it in place (reaim/remove/add)
//	POST  /v1/deployments/{id}/query   batch point checks across a θ-list
//	POST  /v1/deployments/{id}/survey  region sweep (inline)
//	POST  /v1/jobs                     submit an async survey/sweep job
//	GET   /v1/jobs/{id}                poll job status, progress, result
//	DELETE /v1/jobs/{id}               cancel a job
//	GET   /v1/jobs/{id}/events         stream job progress over SSE
//	GET   /healthz, /readyz, /metrics, /debug/pprof/*
//
// Jobs are journaled under -state alongside the deployments: a daemon
// killed mid-survey resumes the job from its last completed band after
// a restart, and the merged result is bit-identical to an uninterrupted
// run.
//
// Patches are applied through a delta overlay on the deployment's CSR
// index; once the overlay exceeds -rebuild-fraction of the base, the
// index is rebuilt in the background and swapped in atomically.
//
// The daemon prints "listening on HOST:PORT" once the socket is bound
// (useful with -addr :0), serves until SIGINT/SIGTERM, then drains:
// in-flight requests run to completion (bounded by -drain-timeout)
// before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fullview/internal/cluster"
	"fullview/internal/server"
	"fullview/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fvcd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fvcd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		stateDir      = fs.String("state", "", "state directory for the durable deployment journal (empty = in-memory only)")
		cacheSize     = fs.Int("cache", 16, "deployments kept warm in the LRU cache")
		maxInFlight   = fs.Int("max-inflight", 0, "max concurrently executing requests (0 = 4×GOMAXPROCS)")
		queueTimeout  = fs.Duration("queue-timeout", 100*time.Millisecond, "max admission wait before a 429")
		queryTimeout  = fs.Duration("query-timeout", 0, "deadline for register/inspect/query handlers, 504 on expiry (0 = 30s default, negative = none)")
		surveyTimeout = fs.Duration("survey-timeout", 0, "deadline for survey handlers, 504 on expiry (0 = 5m default, negative = none)")
		parallel      = fs.Int("parallel", 0, "worker goroutines per survey sweep (0 = GOMAXPROCS)")
		rebuildFrac   = fs.Float64("rebuild-fraction", 0, "overlay size as a fraction of the base index that triggers a background rebuild (0 = default, negative = never rebuild)")
		readTimeout   = fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout (0 = none)")
		writeTimeout  = fs.Duration("write-timeout", 0, "HTTP write timeout (0 = none; long surveys need headroom)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		jobQueue      = fs.Int("job-queue", 0, "pending async jobs per kind before submissions answer 429 (0 = 64)")
		jobWorkers    = fs.Int("job-concurrency", 0, "job workers per kind (0 = 2)")
		jobTTL        = fs.Duration("job-ttl", 0, "retention of finished job results before 410 Gone (0 = 15m, negative = forever)")
		jobThrottle   = fs.Duration("job-throttle", 0, "pause between job bands, for background pacing (0 = none)")
		clusterFile   = fs.String("cluster", "", "peers file naming the cluster membership (see README \"Running a cluster\")")
		selfName      = fs.String("self", "", "this replica's member name in the -cluster peers file")
		antiEntropy   = fs.Duration("antientropy", 0, "interval between anti-entropy digest reconciliations with peers (0 = disabled; requires -cluster)")
		routeMode     = fs.Bool("route", false, "run as a stateless cluster router instead of a replica (requires -cluster)")
		showVersion   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(w, version.String("fvcd"))
		return nil
	}

	logger := log.New(w, "fvcd: ", log.LstdFlags)

	if *routeMode {
		if *clusterFile == "" {
			return errors.New("-route requires -cluster peers.json")
		}
		if *antiEntropy != 0 {
			return errors.New("-antientropy cannot be combined with -route (the router holds no journal to reconcile)")
		}
		peers, err := cluster.LoadPeers(*clusterFile)
		if err != nil {
			return err
		}
		return runRouter(peers, *addr, *readTimeout, *writeTimeout, *drainTimeout, logger)
	}

	if *antiEntropy != 0 && *clusterFile == "" {
		return errors.New("-antientropy requires -cluster (nothing to reconcile against)")
	}
	if *antiEntropy < 0 {
		return fmt.Errorf("-antientropy must be positive, got %s", *antiEntropy)
	}

	var peerURLs []string
	if *clusterFile != "" {
		if *selfName == "" {
			return errors.New("-cluster requires -self NAME (this replica's member name)")
		}
		if *stateDir == "" {
			return errors.New("-cluster requires -state (the mirror and snapshot paths journal)")
		}
		peers, err := cluster.LoadPeers(*clusterFile)
		if err != nil {
			return err
		}
		if !peers.Has(*selfName) {
			return fmt.Errorf("-self %q is not a member of %s", *selfName, *clusterFile)
		}
		for _, m := range peers.Others(*selfName) {
			peerURLs = append(peerURLs, m.URL)
		}
		logger.Printf("cluster: replica %q of %d members (%d peers)", *selfName, len(peers.Members), len(peerURLs))
	}

	srv, err := server.New(server.Config{
		CacheSize:           *cacheSize,
		MaxInFlight:         *maxInFlight,
		QueueTimeout:        *queueTimeout,
		QueryTimeout:        *queryTimeout,
		SurveyTimeout:       *surveyTimeout,
		SurveyWorkers:       *parallel,
		RebuildFraction:     *rebuildFrac,
		StateDir:            *stateDir,
		JobQueue:            *jobQueue,
		JobConcurrency:      *jobWorkers,
		JobTTL:              *jobTTL,
		JobThrottle:         *jobThrottle,
		PeerURLs:            peerURLs,
		AntiEntropyInterval: *antiEntropy,
		Logger:              logger,
	})
	if err != nil {
		return err
	}
	srv.SetTimeouts(*readTimeout, *writeTimeout)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain
	logger.Printf("signal received, draining (timeout %s)", *drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	logger.Printf("drained cleanly")
	return nil
}

// runRouter serves the stateless cluster router with the same
// bind/drain lifecycle as a replica: "listening on HOST:PORT" once
// bound, serve until SIGINT/SIGTERM, then drain in-flight forwards.
func runRouter(peers *cluster.Peers, addr string, readTimeout, writeTimeout, drainTimeout time.Duration, logger *log.Logger) error {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:       peers,
		RegisterKey: server.DeploymentIDFromRequest,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:     rt.Handler(),
		ReadTimeout: readTimeout,
		// Forwarded surveys stream for as long as the shard computes;
		// the router imposes no write timeout unless asked.
		WriteTimeout: writeTimeout,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Printf("routing %d shards", rt.Ring().N())
	logger.Printf("listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("signal received, draining (timeout %s)", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained cleanly")
	return nil
}
