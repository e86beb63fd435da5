package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"fullview/internal/core"
	"fullview/internal/depcache"
	"fullview/internal/depjournal"
	"fullview/internal/deploy"
	"fullview/internal/faultinject"
	"fullview/internal/geom"
	"fullview/internal/retry"
	"fullview/internal/spatial"
)

// cancelCheckInterval is how many query points are evaluated between
// context checks, mirroring the sweep engine's constant: cancellation
// lands within microseconds of work without touching the per-point hot
// path.
const cancelCheckInterval = 256

// handleRegister builds (or revives) a deployment and returns its id.
// The id is the network's content fingerprint, so the same network —
// whether sent as the same explicit camera list or re-derived from the
// same deterministic recipe — maps to the same cache entry; the
// expensive spatial-index construction runs only on a cache miss, and
// concurrent registrations of one fingerprint build single-flight.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(r, &req); err != nil {
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
	if err := decodeBody(r, &req); err != nil {
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
// bit-identical to an in-process MultiChecker.Evaluate.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.deployment(w, r)
	if !ok {
		return
	}
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
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

	ctx := r.Context()
	results := make([]pointResultJSON, len(req.Points))
	for i, p := range req.Points {
		if i%cancelCheckInterval == 0 && ctx.Err() != nil {
			writeCtxError(w, ctx.Err())
			return
		}
		rep := mc.Evaluate(geom.V(p.X, p.Y))
		verdicts := make([]thetaVerdictJSON, len(rep.PerTheta))
		for j, v := range rep.PerTheta {
			verdicts[j] = thetaVerdictJSON{
				ThetaPi:    req.ThetasPi[j],
				FullView:   v.FullView,
				Necessary:  v.Necessary,
				Sufficient: v.Sufficient,
			}
		}
		results[i] = pointResultJSON{
			Point:       p,
			NumCovering: rep.NumCovering,
			MaxGap:      rep.MaxGap,
			PerTheta:    verdicts,
		}
	}
	s.m.points.Add(int64(len(req.Points)))
	writeJSON(w, http.StatusOK, queryResponse{ID: entry.Fingerprint, Version: view.Version(), Results: results})
}

// handleSurvey sweeps a sample grid through the parallel sweep engine
// with the request's context wired into the engine's cancellation: a
// disconnecting client aborts its sweep within a few hundred points.
func (s *Server) handleSurvey(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.deployment(w, r)
	if !ok {
		return
	}
	var req surveyRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	// Pin one snapshot for the whole sweep (same rationale as query).
	view := entry.Index.Snapshot()
	checker, err := core.NewCheckerFromSource(view, req.ThetaPi*math.Pi)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Resolve the grid side first and vet k×k against the point cap
	// BEFORE materialising the grid: a hostile {"grid": 100000} must be
	// rejected by arithmetic, not by attempting the allocation.
	k := req.Grid
	if k <= 0 {
		k, err = deploy.DenseGridSide(view.Len())
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// The k ≤ cap check also makes the k² product safe from overflow:
	// past it, k² ≤ cap², which fits int64 for any plausible cap.
	if int64(k) > int64(s.cfg.MaxBatchPoints) || int64(k)*int64(k) > int64(s.cfg.MaxBatchPoints) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("survey of %d×%d points exceeds cap %d", k, k, s.cfg.MaxBatchPoints))
		return
	}
	points, err := deploy.GridPoints(view.Torus(), k)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	workers := s.cfg.SurveyWorkers
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}

	t0 := time.Now()
	stats, err := checker.SurveyRegionContext(r.Context(), points, workers)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The inline survey outlived SurveyTimeout: steer the client
			// to the async job API, where the same sweep runs without a
			// request deadline and survives crashes.
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{
				Error:      "deadline exceeded: survey outlived the inline request timeout",
				RetryAsJob: true,
				Jobs:       "/v1/jobs",
			})
		case errors.Is(err, context.Canceled):
			writeCtxError(w, err)
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	elapsed := time.Since(t0)
	s.m.points.Add(int64(stats.Points))
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

// writeCtxError maps a context failure to its status: an expired
// deadline (the server's per-route timeout) is 504; a cancellation
// (the client walked away) is 499.
func writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}
	writeError(w, StatusClientClosedRequest, "request cancelled")
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
