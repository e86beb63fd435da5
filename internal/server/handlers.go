package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"fullview/internal/core"
	"fullview/internal/depcache"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/geom"
	"fullview/internal/jobs"
	"fullview/internal/retry"
	"fullview/internal/spatial"
	"fullview/internal/sweep"
)

// handleRegister builds (or revives) a deployment and returns its id.
// The id is the network's content fingerprint, so the same network —
// whether sent as the same explicit camera list or re-derived from the
// same deterministic recipe — maps to the same cache entry; the
// expensive spatial-index construction runs only on a cache miss, and
// concurrent registrations of one fingerprint build single-flight.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	rec := recordFromRequest(&req)
	net, err := buildNetwork(&rec, s.cfg.MaxCameras)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec.ID = depcache.Fingerprint(net)
	entry, hit, err := s.cache.GetOrBuild(rec.ID, func() (*depcache.Entry, error) {
		if err := faultinject.Fire(faultinject.DepcacheBuild); err != nil {
			return nil, err
		}
		// An id the journal already holds may carry mutations (or a
		// compaction-folded history): rebuild from the journal, not from
		// this request, or re-registering after a PATCH would resurrect
		// the pre-mutation state.
		if s.journal != nil {
			if jrec, ok := s.journal.Lookup(rec.ID); ok {
				return s.entryFromRecord(jrec)
			}
		}
		// Persist before caching: a deployment the journal could not
		// record is refused outright (503, retry later) rather than
		// served now and forgotten on restart. Cache hits skip this —
		// cached implies journaled.
		if err := s.persist(rec); err != nil {
			return nil, err
		}
		return &depcache.Entry{
			Fingerprint: rec.ID,
			Index:       spatial.NewMutableIndex(net, s.mutableOpts(0)),
		}, nil
	})
	if err != nil {
		if errors.Is(err, errNotDurable) {
			writeRetryable(w, http.StatusServiceUnavailable, err.Error())
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.m.registered.Inc()
	code := http.StatusCreated
	if hit {
		code = http.StatusOK
	}
	s.logf("register %s: %d cameras, cached=%v", rec.ID, entry.Index.Len(), hit)
	writeJSON(w, code, registerResponse{
		ID:        entry.Fingerprint,
		Cameras:   entry.Index.Len(),
		Torus:     entry.Index.Torus().Side(),
		Cached:    hit,
		MaxRadius: entry.Index.MaxRadius(),
		Version:   entry.Index.Version(),
	})
}

// deployment resolves the {id} path value through lookup. Only an id
// that neither the cache nor the journal knows is a 404; clients then
// re-register (an idempotent, cheap-on-hit operation).
func (s *Server) deployment(w http.ResponseWriter, r *http.Request) (*depcache.Entry, bool) {
	id := r.PathValue("id")
	entry, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("deployment %q not registered (or evicted); re-register it", id))
		return nil, false
	}
	return entry, true
}

// handleInspect describes a registered deployment's live state:
// camera count, version, and overlay size reflect every applied patch,
// so operators can observe a deployment's churn without /metrics.
func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.deployment(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, inspectResponse{
		ID:               entry.Fingerprint,
		Cameras:          entry.Index.Len(),
		Torus:            entry.Index.Torus().Side(),
		MaxRadius:        entry.Index.MaxRadius(),
		TotalSensingArea: entry.Index.TotalSensingArea(),
		Version:          entry.Index.Version(),
		Overlay:          entry.Index.OverlaySize(),
	})
}

// badPatch is a PATCH validation failure, mapped to 400. It exists so
// the apply closure running under the cache's mutation lock can
// distinguish "client sent nonsense" from "journal is failing" (503)
// and "internal invariant broke" (500).
type badPatch struct{ msg string }

func (e *badPatch) Error() string { return e.msg }

// handleMutate applies a PATCH — re-aims, removals, additions — to a
// registered deployment. The whole batch is validated first, journaled
// (persist-before-apply: a batch the journal cannot record is refused
// with 503 + Retry-After and the served state is untouched), and only
// then applied to the live index, all under the deployment's mutation
// lock so concurrent patches serialize and journal order equals apply
// order.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req patchRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Reaim) == 0 && len(req.Remove) == 0 && len(req.Add) == 0 {
		writeError(w, http.StatusBadRequest, "empty patch: give reaim, remove, or add")
		return
	}
	var resp patchResponse
	found, err := s.cache.Mutate(id,
		func() (*depcache.Entry, bool) { return s.lookup(id) },
		func(e *depcache.Entry) error { return s.applyPatch(e, &req, &resp) })
	if !found {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("deployment %q not registered (or evicted); re-register it", id))
		return
	}
	if err != nil {
		var bad *badPatch
		switch {
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, bad.msg)
		case errors.Is(err, errNotDurable), errors.Is(err, depjournal.ErrStale), errors.Is(err, depjournal.ErrGap):
			writeRetryable(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.logf("mutate %s: reaim=%d remove=%d add=%d → version %d (%d cameras, overlay %d)",
		id, resp.Reaimed, resp.Removed, resp.Added, resp.Version, resp.Cameras, resp.Overlay)
	writeJSON(w, http.StatusOK, resp)
}

// applyPatch validates, journals, and applies one PATCH batch to an
// entry. Runs under the deployment's mutation lock.
func (s *Server) applyPatch(e *depcache.Entry, req *patchRequest, resp *patchResponse) error {
	live := e.Index.Len()
	if n := live - len(req.Remove) + len(req.Add); n > s.cfg.MaxCameras {
		return &badPatch{fmt.Sprintf("patched deployment would have %d cameras, cap is %d", n, s.cfg.MaxCameras)}
	}
	reaims := make([]depjournal.ReaimOp, len(req.Reaim))
	for i, op := range req.Reaim {
		if op.Index < 0 || op.Index >= live {
			return &badPatch{fmt.Sprintf("reaim index %d out of range [0, %d)", op.Index, live)}
		}
		reaims[i] = depjournal.ReaimOp{I: op.Index, Orient: op.Orient}
	}
	seen := make(map[int]bool, len(req.Remove))
	for _, i := range req.Remove {
		if i < 0 || i >= live {
			return &badPatch{fmt.Sprintf("remove index %d out of range [0, %d)", i, live)}
		}
		if seen[i] {
			return &badPatch{fmt.Sprintf("remove index %d listed twice", i)}
		}
		seen[i] = true
	}
	for i, c := range req.Add {
		if err := sensorCamera(c).Validate(); err != nil {
			return &badPatch{fmt.Sprintf("add camera %d: %v", i, err)}
		}
	}

	// The batch becomes journal records in the fixed apply order —
	// reaim, remove, add — each stamped with the logical version it
	// produces (the index bumps once per record). The stamps travel with
	// the records into the mirror stream, letting replicas deduplicate a
	// mirror batch racing an anti-entropy repair of the same records —
	// both paths journal identical bytes, so "already at this version"
	// means "already holds this record".
	var recs []depjournal.Record
	if len(reaims) > 0 {
		recs = append(recs, depjournal.Record{ID: e.Fingerprint, Op: depjournal.OpReaim, Reaim: reaims})
	}
	if len(req.Remove) > 0 {
		recs = append(recs, depjournal.Record{ID: e.Fingerprint, Op: depjournal.OpRemove, Remove: req.Remove})
	}
	if len(req.Add) > 0 {
		recs = append(recs, depjournal.Record{ID: e.Fingerprint, Op: depjournal.OpAdd, Cameras: req.Add})
	}
	v0 := e.Index.Version()
	for i := range recs {
		recs[i].BaseVersion = v0 + uint64(i) + 1
	}
	// Journal before touching the index, then apply exactly the journaled
	// records through the replay path, so a restart reproduces the live
	// state bit-for-bit.
	if err := s.persistMutations(e.Fingerprint, recs); err != nil {
		return err
	}
	// Everything was validated against the live list above, so the index
	// cannot refuse these; an error here is an internal invariant break
	// and surfaces as 500.
	if err := applyMutations(e.Index, recs); err != nil {
		return fmt.Errorf("apply %w", err)
	}
	*resp = patchResponse{
		ID:      e.Fingerprint,
		Version: e.Index.Version(),
		Cameras: e.Index.Len(),
		Overlay: e.Index.OverlaySize(),
		Reaimed: len(req.Reaim),
		Removed: len(req.Remove),
		Added:   len(req.Add),
	}
	return nil
}

// handleQuery answers a batch of point full-view checks across a
// θ-list. One core.MultiChecker is built per request from the cached
// index — the candidate gather and max-gap scan run once per point no
// matter how many angles are asked — and its verdicts are returned
// bit-identical to an in-process MultiChecker.Evaluate. The batch runs
// through the sweep engine (evaluateQuery); the body is byte-identical
// to encoding/json's rendering of queryResponse.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.deployment(w, r)
	if !ok {
		return
	}
	req, err := s.decodeQuery(r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "points must list at least one sample point")
		return
	}
	if len(req.Points) > s.cfg.MaxBatchPoints {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d points exceeds cap %d", len(req.Points), s.cfg.MaxBatchPoints))
		return
	}
	thetas, err := thetasFromPi(req.ThetasPi, s.cfg.MaxThetas)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Pin one snapshot for the whole batch: every point is evaluated
	// against the same deployment version even while patches land.
	view := entry.Index.Snapshot()
	mc, err := core.NewMultiCheckerFromSource(view, thetas)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Latency injection point for the deadline chaos tests: a sleeping
	// hook here simulates a pathologically slow query.
	if err := faultinject.Fire(faultinject.QueryLatency); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	t0 := time.Now()
	parts, err := evaluateQuery(r.Context(), mc, req.Points, req.ThetasPi, s.cfg.SurveyWorkers)
	if err != nil {
		s.writeSweepError(w, "query", err)
		return
	}
	n := len(req.Points)
	s.m.points.Add(int64(n))
	s.m.pointCost["query"].Observe(time.Since(t0).Nanoseconds() / int64(n))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendQueryHead(nil, entry.Fingerprint, view.Version()))
	for _, p := range parts {
		_, _ = w.Write(p)
	}
	_, _ = w.Write([]byte(queryTail))
}

// evaluateQuery diagnoses every point through the sweep engine and
// returns the JSON of the results array's elements, comma-separated, in
// point order: one part per worker chunk. Workers are capped at one per
// sweep.BatchSize points, so a batch of at most one sweep batch runs
// inline on the calling goroutine with mc itself; otherwise one worker
// takes mc and the others a Clone of it. The parts are identical at
// every worker count. A cancelled ctx returns ctx.Err(), and a kernel
// panic a *sweep.PanicError.
func evaluateQuery(ctx context.Context, mc *core.MultiChecker, points []pointJSON, thetasPi []float64, maxWorkers int) ([][]byte, error) {
	n := len(points)
	workers := max(1, min(maxWorkers, (n+sweep.BatchSize-1)/sweep.BatchSize))
	pts := make([]geom.Vec, n)
	for i, p := range points {
		pts[i] = geom.V(p.X, p.Y)
	}
	heads := appendThetaHeads(thetasPi)
	// Reserve each chunk's bytes once: chunks are ⌈n/workers⌉ points, and
	// a point rarely needs more than perPointBytes.
	chunkBytes := (n + workers - 1) / workers * perPointBytes(len(thetasPi))
	// Clones are taken before the sweep starts: Clone reads the
	// scratch buffers the worker holding mc is writing.
	checkers := make([]*core.MultiChecker, workers)
	checkers[0] = mc
	for i := 1; i < workers; i++ {
		checkers[i] = mc.Clone()
	}
	var next atomic.Int32
	return sweep.RunBatch(ctx, pts, workers,
		func() (*core.MultiChecker, error) { return checkers[next.Add(1)-1], nil },
		func(m *core.MultiChecker, acc [][]byte, lo int, batch []geom.Vec) [][]byte {
			if acc == nil {
				acc = [][]byte{make([]byte, 0, chunkBytes)}
			}
			b := acc[0]
			for i, p := range batch {
				if lo+i > 0 {
					b = append(b, ',')
				}
				b = appendPointResult(b, points[lo+i], m.Evaluate(p), heads)
			}
			acc[0] = b
			return acc
		},
		func(dst, src [][]byte) [][]byte { return append(dst, src...) },
	)
}

// handleSurvey surveys a sample grid on the request goroutine: the
// same jobs.Spec a survey job would queue (surveySpec), run by the job
// executor's row runner over every row in one call, with the request's
// context wired into the sweep's cancellation — a disconnecting client
// aborts its sweep within one row block (at least 2,048 points) per
// worker.
func (s *Server) handleSurvey(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.deployment(w, r)
	if !ok {
		return
	}
	var req surveyRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	// Pin one snapshot for the whole sweep (same rationale as query).
	// The inline survey reads a negative worker count as the server
	// default, where the job rule refuses it.
	view := entry.Index.Snapshot()
	spec, err := s.surveySpec(entry.Fingerprint, view, jobs.KindSurvey, []float64{req.ThetaPi}, req.Grid, max(req.Workers, 0))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	run, err := s.surveyRunner(view, spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	t0 := time.Now()
	rows, err := run(r.Context(), 0, spec.Grid)
	if errors.Is(err, context.DeadlineExceeded) {
		// The inline survey outlived SurveyTimeout: steer the client to
		// the async job API, where the same sweep runs without a request
		// deadline and survives crashes.
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{
			Error:      "deadline exceeded: survey outlived the inline request timeout",
			RetryAsJob: true,
			Jobs:       "/v1/jobs",
		})
		return
	}
	if err != nil {
		s.writeSweepError(w, "survey", err)
		return
	}
	elapsed := time.Since(t0)
	// Rows merge in row order, as jobs.Manager.merge folds a job's
	// bands: the total is bit-identical to a whole-grid SurveyRegion.
	var stats core.RegionStats
	for _, row := range rows {
		stats = stats.Merge(row)
	}
	s.m.surveyPoints.Add(int64(stats.Points))
	if stats.Points > 0 {
		s.m.pointCost["survey"].Observe(elapsed.Nanoseconds() / int64(stats.Points))
	}
	writeJSON(w, http.StatusOK, surveyResponse{
		ID:                 entry.Fingerprint,
		Version:            view.Version(),
		ThetaPi:            req.ThetaPi,
		Points:             stats.Points,
		FullView:           stats.FullView,
		Necessary:          stats.Necessary,
		Sufficient:         stats.Sufficient,
		MinCovering:        stats.MinCovering,
		MeanCovering:       stats.MeanCovering,
		FullViewFraction:   stats.FullViewFraction(),
		NecessaryFraction:  stats.NecessaryFraction(),
		SufficientFraction: stats.SufficientFraction(),
		ElapsedNS:          elapsed.Nanoseconds(),
	})
}

// writeSweepError answers a /query or /survey sweep that failed. A
// kernel panic (*sweep.PanicError) is logged with its stack, counted in
// fvcd_panics_total and answered 500 with the panic value alone: the
// stack stays in the log. An expired deadline (the route's timeout) is
// 504, and a cancellation (the client walked away) is 499.
func (s *Server) writeSweepError(w http.ResponseWriter, route string, err error) {
	var perr *sweep.PanicError
	switch {
	case errors.As(err, &perr):
		s.logf("panic in %s kernel (recovered): %v", route, err)
		s.m.panics.Inc()
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("internal error: %s kernel panicked: %v", route, perr.Value))
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptimeNs": time.Since(s.start).Nanoseconds(),
	})
}

// handleReadyz is the readiness probe, distinct from liveness: a
// starting server (journal replay warming the cache) answers 503 so
// orchestrators hold traffic; a degraded one (journal writes failing)
// answers 200 — it is still serving queries from memory — with the
// state and reason in the body so operators see the problem.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	state, reason := s.readiness()
	code := http.StatusOK
	if state == ReadyStarting {
		// Starting is retryable by definition — the replay will finish —
		// so this 503 carries the same jittered Retry-After as every
		// other retryable rejection.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retry.After())
	}
	body := map[string]any{"status": state}
	if reason != "" {
		body["reason"] = reason
	}
	writeJSON(w, code, body)
}
