package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/jobs"
	"fullview/internal/spatial"
	"fullview/internal/telemetry"
)

// jobsDirName is the job-journal directory inside StateDir.
const jobsDirName = "jobs"

// jobSubmitRequest asks for an asynchronous survey or sweep. A survey
// takes exactly one angle, a sweep a θ-list; either takes its angles
// as thetaPi (one) or thetasPi (a list), not both. Grid and Workers
// follow the inline survey conventions: Grid 0 selects the paper's
// dense grid for the deployment size, Workers may only lower the
// server's per-group parallelism.
type jobSubmitRequest struct {
	Kind       string    `json:"kind"`
	Deployment string    `json:"deployment"`
	ThetaPi    float64   `json:"thetaPi,omitempty"`
	ThetasPi   []float64 `json:"thetasPi,omitempty"`
	Grid       int       `json:"grid,omitempty"`
	Workers    int       `json:"workers,omitempty"`
}

// jobResponse is the uniform job body answered by submit, poll, and
// cancel. Result appears only on a done job; its stats use the exact-
// integer RegionStats encoding, so two bit-identical runs produce
// byte-identical result JSON.
type jobResponse struct {
	ID         string       `json:"id"`
	Kind       string       `json:"kind"`
	Deployment string       `json:"deployment"`
	Version    uint64       `json:"version,omitempty"`
	State      string       `json:"state"`
	Bands      int          `json:"bands"`
	BandsDone  int          `json:"bandsDone"`
	ThetasPi   []float64    `json:"thetasPi"`
	Grid       int          `json:"grid"`
	Resumed    bool         `json:"resumed,omitempty"`
	Durable    bool         `json:"durable"`
	Error      string       `json:"error,omitempty"`
	Result     *jobs.Result `json:"result,omitempty"`
	CreatedNS  int64        `json:"createdNs"`
	StartedNS  int64        `json:"startedNs,omitempty"`
	FinishedNS int64        `json:"finishedNs,omitempty"`
}

func jobBody(snap jobs.Snapshot) jobResponse {
	resp := jobResponse{
		ID:         snap.ID,
		Kind:       string(snap.Spec.Kind),
		Deployment: snap.Spec.Deployment,
		Version:    snap.Spec.Version,
		State:      string(snap.State),
		Bands:      snap.Bands,
		BandsDone:  snap.BandsDone,
		ThetasPi:   snap.Spec.ThetasPi,
		Grid:       snap.Spec.Grid,
		Resumed:    snap.Resumed,
		Durable:    snap.Durable,
		Error:      snap.Err,
		Result:     snap.Result,
		CreatedNS:  snap.Created.UnixNano(),
	}
	if !snap.Started.IsZero() {
		resp.StartedNS = snap.Started.UnixNano()
	}
	if !snap.Finished.IsZero() {
		resp.FinishedNS = snap.Finished.UnixNano()
	}
	return resp
}

// openJobs builds the job manager (journaling under StateDir/jobs when
// durable) and registers the fvcd_jobs_* metric families. Called from
// New; the manager's replay + worker start happen later, in warmup.
func (s *Server) openJobs() error {
	dir := ""
	if s.cfg.StateDir != "" {
		dir = filepath.Join(s.cfg.StateDir, jobsDirName)
	}
	duration := s.m.reg.Histogram("fvcd_job_duration_ns",
		"Job wall time from run start to terminal state.", nil)
	logger := s.cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	mgr, err := jobs.New(jobs.Config{
		Dir:         dir,
		QueueDepth:  s.cfg.JobQueue,
		Concurrency: s.cfg.JobConcurrency,
		TTL:         s.cfg.JobTTL,
		Throttle:    s.cfg.JobThrottle,
		Logger:      logger,
		Hooks: jobs.Hooks{
			JobDone: func(_ jobs.State, elapsed time.Duration) {
				duration.Observe(elapsed.Nanoseconds())
			},
			GroupDone: func(points int, elapsed time.Duration) {
				s.m.surveyPoints.Add(int64(points))
				if points > 0 {
					s.m.pointCost["job"].Observe(elapsed.Nanoseconds() / int64(points))
				}
			},
		},
	}, s.execJob)
	if err != nil {
		return fmt.Errorf("server: open job state: %w", err)
	}
	s.jobs = mgr
	for _, st := range jobs.States() {
		s.m.reg.CounterFunc("fvcd_jobs_total", "Job state transitions by state.",
			func() int64 { return mgr.StateCount(st) }, telemetry.L("state", string(st)))
	}
	s.m.reg.GaugeFunc("fvcd_jobs_inflight", "Jobs currently running.",
		func() float64 { return float64(mgr.Inflight()) })
	s.m.reg.CounterFunc("fvcd_job_bands_total",
		"Job bands completed (journaled when durable).", mgr.BandsDone)
	s.m.reg.CounterFunc("fvcd_job_resume_total",
		"Jobs resumed from their journals after a restart.", mgr.Resumes)
	return nil
}

// execJob is the executor the job manager calls when a job starts (or
// resumes): it resolves the deployment — through the same lookup as
// the synchronous handlers, so journaled ids work after a restart —
// pins one snapshot, verifies the version the job was submitted
// against, and returns the runner of its row groups.
func (s *Server) execJob(spec jobs.Spec) (jobs.BandRunner, error) {
	entry, ok := s.lookup(spec.Deployment)
	if !ok {
		return nil, fmt.Errorf("deployment %s is no longer registered", spec.Deployment)
	}
	view := entry.Index.Snapshot()
	if spec.Version != 0 && view.Version() != spec.Version {
		return nil, fmt.Errorf("deployment %s is at version %d but the job pinned version %d (mutated since submission)",
			spec.Deployment, view.Version(), spec.Version)
	}
	return s.surveyRunner(view, spec)
}

// surveySpec is the one description of a survey, inline or queued, of
// deployment id at the pinned view. It resolves the grid side (the
// paper's dense grid for the deployment size when grid ≤ 0), vets k×k
// against MaxBatchPoints, caps the θ-list, pins the view's version and
// holds the result to the job rule (jobs.Spec.Validate) as a sweep: a
// survey is its one-θ case. The grid is vetted by arithmetic before
// anything is materialised: a hostile {"grid": 100000} is a 400, not an
// allocation.
func (s *Server) surveySpec(id string, view spatial.Source, thetasPi []float64, grid, workers int) (jobs.Spec, error) {
	k := grid
	if k <= 0 {
		var err error
		if k, err = deploy.DenseGridSide(view.Len()); err != nil {
			return jobs.Spec{}, err
		}
	}
	// The k ≤ cap check also makes the k² product safe from overflow:
	// past it, k² ≤ cap², which fits int64 for any plausible cap.
	if int64(k) > int64(s.cfg.MaxBatchPoints) || int64(k)*int64(k) > int64(s.cfg.MaxBatchPoints) {
		return jobs.Spec{}, fmt.Errorf("survey of %d×%d points exceeds cap %d", k, k, s.cfg.MaxBatchPoints)
	}
	if _, err := thetasFromPi(thetasPi, s.cfg.MaxThetas); err != nil {
		return jobs.Spec{}, err
	}
	spec := jobs.Spec{
		Kind:       jobs.KindSweep,
		Deployment: id,
		ThetasPi:   thetasPi,
		Grid:       k,
		Workers:    workers,
		Version:    view.Version(),
	}
	return spec, spec.Validate()
}

// surveyRunner returns the runner of spec's row groups over view. One
// band is one grid row at one θ; a row group's bands come from one
// MultiChecker.SurveyGridContext sweep over the group's rows at every
// θ, whose chunk-order merge makes each band independent of the worker
// count and of the group it ran in, so a job resumed under a different
// -parallel setting is still bit-identical. A job runs it group by
// group; the inline /survey runs it once over every row.
func (s *Server) surveyRunner(view spatial.Source, spec jobs.Spec) (jobs.BandRunner, error) {
	thetas := make([]float64, spec.Slots())
	for i, tp := range spec.ThetasPi {
		thetas[i] = tp * math.Pi
	}
	mc, err := core.NewMultiCheckerFromSource(view, thetas)
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers <= 0 || workers > s.cfg.SurveyWorkers {
		workers = s.cfg.SurveyWorkers
	}
	return func(ctx context.Context, rowLo, rowHi int) ([]core.RegionStats, error) {
		stats, err := mc.SurveyGridContext(ctx, spec.Grid, rowLo, rowHi, workers)
		if err == nil {
			// The fused sweep gathers each point once for every θ.
			s.m.points.Add(int64((rowHi - rowLo) * spec.Grid))
		}
		return stats, err
	}, nil
}

// Jobs returns the job manager (for tests and embedders).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// handleJobSubmit accepts a survey or sweep job: the deployment is
// resolved and the grid vetted now (fail fast, 4xx), the compute runs
// later on the job workers. Answers 202 with the queued job body; a
// saturated job queue answers 429 with the same jittered Retry-After as
// the admission gate.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	thetas := req.ThetasPi
	if req.ThetaPi != 0 {
		if len(thetas) > 0 {
			writeError(w, http.StatusBadRequest, "give thetaPi or thetasPi, not both")
			return
		}
		thetas = []float64{req.ThetaPi}
	}
	entry, ok := s.lookup(req.Deployment)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("deployment %q not registered (or evicted); re-register it", req.Deployment))
		return
	}
	spec, err := s.surveySpec(entry.Fingerprint, entry.Index.Snapshot(), thetas, req.Grid, req.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Job bodies echo the submitted kind; Submit holds the spec to that
	// kind's θ count and refuses an unknown kind.
	spec.Kind = jobs.Kind(req.Kind)
	snap, err := s.jobs.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrQueueFull):
		writeRetryable(w, http.StatusTooManyRequests, "job queue full")
		return
	case errors.Is(err, jobs.ErrClosed):
		// Shutting down is retryable too — against the restarted daemon
		// or another replica — so it carries Retry-After like every
		// other retryable 5xx.
		writeRetryable(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, jobBody(snap))
}

// writeJobLookupError maps the manager's lookup sentinels: collected
// results answer 410 Gone (the id existed; its retention TTL passed),
// unknown ids 404.
func writeJobLookupError(w http.ResponseWriter, id string, err error) {
	if errors.Is(err, jobs.ErrExpired) {
		writeError(w, http.StatusGone,
			fmt.Sprintf("job %s expired: its result passed the retention TTL", id))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("no job %s", id))
}

// handleJobGet polls a job's status, progress, and (when done) result.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		writeJobLookupError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, jobBody(snap))
}

// handleJobCancel requests cancellation. Queued jobs cancel
// synchronously; a running job's body may still say "running" — poll
// until terminal. Cancelling a terminal job is an idempotent no-op that
// re-answers the terminal body.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Cancel(id)
	if err != nil {
		writeJobLookupError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, jobBody(snap))
}

// handleJobEvents streams a job's progress over Server-Sent Events: a
// "snapshot" event with the current body, then a "band" event per
// completed band (carrying that band's partial RegionStats) and "state"
// events for transitions, and a final "snapshot" when the job is
// terminal. Like the other observability endpoints it bypasses the
// admission gate — a stream is long-lived by design and must not pin a
// compute slot.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ch, stop, err := s.jobs.Subscribe(id)
	if err != nil {
		writeJobLookupError(w, id, err)
		return
	}
	defer stop()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "snapshot", jobBody(snap))
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal: re-read for the authoritative final body (the
				// closing event may have been dropped under backpressure).
				if final, err := s.jobs.Get(id); err == nil {
					writeSSE(w, "snapshot", jobBody(final))
					fl.Flush()
				}
				return
			}
			writeSSE(w, string(ev.Type), ev)
			fl.Flush()
		}
	}
}

// writeSSE writes one Server-Sent Event with a JSON payload.
func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
