package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"fullview/internal/core"
	"fullview/internal/depjournal"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/server"
	"fullview/internal/spatial"
	"fullview/internal/sweep"
)

// replayPointCap bounds the sample points the kernel replays walk, so a
// traced run stays a few seconds longer than an untraced one.
const replayPointCap = 50000

// replayReps is how many times each replay loop runs; the median counts.
const replayReps = 5

// replayInput is one sampled request replayed into the layers, against
// the final snapshot of the deployment on the node that served it.
type replayInput struct {
	dep    int
	live   *spatial.MutableIndex // the serving node's index
	view   *spatial.View         // its final snapshot
	base   *spatial.Index        // a fresh immutable index over the same cameras
	pts    []geom.Vec
	thetas []float64 // radians
	op     op
	resp   []byte
}

// replayInputs gathers the sampled main-class requests with the live
// state they ran against. Deployments no longer cached are skipped.
func (r *runner) replayInputs() []replayInput {
	type state struct {
		live *spatial.MutableIndex
		view *spatial.View
		base *spatial.Index
		ok   bool
	}
	states := map[int]*state{}
	stateOf := func(dep int) *state {
		if s, ok := states[dep]; ok {
			return s
		}
		s := &state{}
		states[dep] = s
		n := r.topo.nodes[r.topo.owner(r.deps[dep].id)]
		e, ok := n.srv.Cache().Get(r.deps[dep].id)
		if !ok {
			return s
		}
		net, err := e.Index.Network()
		if err != nil {
			return s
		}
		s.live, s.view, s.base, s.ok = e.Index, e.Index.Snapshot(), spatial.NewIndex(net), true
		return s
	}
	var ins []replayInput
	total := 0
	for i, e := range r.checks {
		if total >= replayPointCap {
			break
		}
		if e.op.query == nil && i%checkEvery != 0 {
			continue // every survey is checked, every 50th replayed
		}
		s := stateOf(e.op.dep)
		if !s.ok {
			continue
		}
		in := replayInput{dep: e.op.dep, live: s.live, view: s.view, base: s.base, op: e.op, resp: e.resp}
		if q := e.op.query; q != nil {
			for _, p := range q.Points {
				in.pts = append(in.pts, geom.V(p.X, p.Y))
			}
			for _, t := range q.ThetasPi {
				in.thetas = append(in.thetas, t*math.Pi)
			}
		} else {
			// A survey: its points are the deployment's dense grid.
			k, err := deploy.DenseGridSide(s.view.Len())
			if err != nil {
				continue
			}
			in.pts, err = deploy.GridPoints(s.view.Torus(), k)
			if err != nil {
				continue
			}
			in.thetas = []float64{0.25 * math.Pi}
		}
		total += len(in.pts)
		ins = append(ins, in)
	}
	return ins
}

// timed runs f replayReps times, with prep (untimed) before each run,
// and returns the median duration.
func timed(prep, f func()) time.Duration {
	ds := make([]float64, replayReps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		ds[i] = float64(timed1(f))
	}
	return time.Duration(median(ds))
}

func timed1(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// medianOf times f once per item and returns the median in the unit.
func medianOf(n int, unit time.Duration, f func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f(i)
		ds[i] = float64(time.Since(t0)) / float64(unit)
	}
	return median(ds)
}

// replay times the layers' exported functions on the sampled inputs.
func (r *runner) replay(p *report) error {
	ins := r.replayInputs()
	points := 0
	for _, in := range ins {
		points += len(in.pts)
	}
	note := fmt.Sprintf("(replay of %d sampled requests, %d points, median of %d)", len(ins), points, replayReps)
	perPoint := func(d time.Duration) float64 { return safeDiv(float64(d), float64(points)) }

	var buf []float64
	gather := func(src func(in *replayInput) spatial.Source) func() {
		return func() {
			for i := range ins {
				s := src(&ins[i])
				for _, pt := range ins[i].pts {
					buf = s.AppendViewedDirections(buf[:0], pt)
				}
			}
		}
	}
	// Collect the load's garbage first so no GC cycle runs inside a timing.
	runtime.GC()
	gBase := timed(nil, gather(func(in *replayInput) spatial.Source { return in.base }))
	gLive := timed(nil, gather(func(in *replayInput) spatial.Source { return in.view }))
	p.set("layer", "spatial.gather_ns_per_point", perPoint(gBase), "ns", "(Index.AppendViewedDirections on a fresh index "+note+")")
	p.set("layer", "spatial.gather_overlay_ns_per_point", perPoint(gLive), "ns", "(View.AppendViewedDirections on the live snapshot "+note+")")

	var sc spatial.BatchScratch
	gBatch := timed(nil, func() {
		for _, in := range ins {
			for lo := 0; lo < len(in.pts); lo += sweep.BatchSize {
				in.view.AppendViewedDirectionsBatch(&sc, in.pts[lo:min(lo+sweep.BatchSize, len(in.pts))])
			}
		}
	})
	p.set("layer", "spatial.gather_batch_ns_per_point", perPoint(gBatch), "ns", "(View.AppendViewedDirectionsBatch "+note+")")

	// Gather every point's directions once, untimed, for the max-gap scan.
	var flat []float64
	offs := []int{0}
	for _, in := range ins {
		for _, pt := range in.pts {
			flat = in.view.AppendViewedDirections(flat, pt)
			offs = append(offs, len(flat))
		}
	}
	p.set("layer", "spatial.candidates_per_point", safeDiv(float64(len(flat)), float64(points)), "count",
		fmt.Sprintf("(covering cameras per point, n=%d)", points))
	work := make([]float64, len(flat))
	gap := timed(func() { copy(work, flat) }, func() {
		for i := 0; i+1 < len(offs); i++ {
			geom.MaxCircularGapInPlace(work[offs[i]:offs[i+1]])
		}
	})
	p.set("layer", "core.maxgap_ns_per_point", perPoint(gap), "ns", "(geom.MaxCircularGapInPlace on the gathered directions "+note+")")

	checkers := make([]*core.Checker, len(ins))
	multis := make([]*core.MultiChecker, len(ins))
	for i, in := range ins {
		c, err := core.NewCheckerFromSource(in.view, in.thetas[0])
		if err != nil {
			return err
		}
		m, err := core.NewMultiCheckerFromSource(in.view, in.thetas)
		if err != nil {
			return err
		}
		checkers[i], multis[i] = c, m
	}
	// Each Meets* call gathers the point's directions itself, the second
	// from a warm cache, so the gathers subtracted are timed the same way:
	// twice per point, back to back. The two loops alternate and the
	// median of the paired differences counts, so a drift of the host's
	// speed between them does not turn into occupancy time.
	diffs := make([]float64, replayReps)
	for rep := range diffs {
		twoGathers := timed1(func() {
			for _, in := range ins {
				for _, pt := range in.pts {
					buf = in.view.AppendViewedDirections(buf[:0], pt)
					buf = in.view.AppendViewedDirections(buf[:0], pt)
				}
			}
		})
		meets := timed1(func() {
			for i, in := range ins {
				for _, pt := range in.pts {
					checkers[i].MeetsNecessary(pt)
					checkers[i].MeetsSufficient(pt)
				}
			}
		})
		diffs[rep] = float64(meets - twoGathers)
	}
	p.set("layer", "core.occupancy_ns_per_point", perPoint(time.Duration(median(diffs))), "ns",
		"(MeetsNecessary + MeetsSufficient − 2 gathers, paired "+note+")")
	eval := timed(nil, func() {
		for i, in := range ins {
			for _, pt := range in.pts {
				multis[i].Evaluate(pt)
			}
		}
	})
	p.set("layer", "core.evaluate_ns_per_point", perPoint(eval), "ns", "(MultiChecker.Evaluate per point, as /query runs today "+note+")")
	evalBatch := timed(nil, func() {
		for i, in := range ins {
			multis[i].EvaluateBatch(in.pts, func(int, core.MultiReport) {})
		}
	})
	p.set("layer", "core.evaluate_batch_ns_per_point", perPoint(evalBatch), "ns", "(MultiChecker.EvaluateBatch "+note+")")
	surveyBatch := timed(nil, func() {
		for i, in := range ins {
			for lo := 0; lo < len(in.pts); lo += sweep.BatchSize {
				checkers[i].SurveyBatch(in.pts[lo:min(lo+sweep.BatchSize, len(in.pts))])
			}
		}
	})
	p.set("layer", "core.survey_batch_ns_per_point", perPoint(surveyBatch), "ns", "(Checker.SurveyBatch in 256-point batches "+note+")")

	r.replayServer(p, ins)
	if err := r.replaySweep(p, ins); err != nil {
		return fmt.Errorf("sweep replay: %w", err)
	}
	if err := r.replayJournal(p); err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	return nil
}

// replayServer times the handler's own steps on the recorded bodies:
// strict decode, checker build on a fresh snapshot, and encode.
func (r *runner) replayServer(p *report, ins []replayInput) {
	n := len(ins)
	note := fmt.Sprintf("(p50 over %d sampled requests)", n)
	p.set("layer", "server.decode_ms", medianOf(n, time.Millisecond, func(i int) {
		var dst any = &queryRequest{}
		if ins[i].op.class == classSurvey {
			dst = &surveyRequest{}
		}
		dec := json.NewDecoder(bytes.NewReader(ins[i].op.body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(dst)
	}), "ms", "(strict encoding/json decode of the request body "+note+")")

	answers := make([]any, n)
	bytesTotal, pointsTotal := 0, 0
	for i, in := range ins {
		var v any = &queryResponse{}
		if in.op.class == classSurvey {
			v = &surveyResponse{}
		}
		_ = json.Unmarshal(in.resp, v)
		answers[i] = v
		bytesTotal += len(in.resp)
		pointsTotal += len(in.pts)
	}
	p.set("layer", "server.encode_ms", medianOf(n, time.Millisecond, func(i int) {
		_ = json.NewEncoder(io.Discard).Encode(answers[i])
	}), "ms", "(encoding/json encode of the recorded answer "+note+")")
	p.set("layer", "server.response_bytes_per_point", safeDiv(float64(bytesTotal), float64(pointsTotal)), "bytes",
		fmt.Sprintf("(%d answer bytes over %d points)", bytesTotal, pointsTotal))
	p.set("layer", "server.checker_build_us", medianOf(n, time.Microsecond, func(i int) {
		_, _ = core.NewMultiCheckerFromSource(ins[i].live.Snapshot(), ins[i].thetas)
	}), "us", "(MutableIndex.Snapshot + core.NewMultiCheckerFromSource "+note+")")

	// Revival rebuilds a deployment from its recipe: the cost a cache miss
	// adds to a request.
	var deps []int
	seen := map[int]bool{}
	for _, in := range ins {
		if !seen[in.dep] && len(deps) < 16 {
			seen[in.dep] = true
			deps = append(deps, in.dep)
		}
	}
	p.set("layer", "depcache.revive_ms", medianOf(len(deps), time.Millisecond, func(i int) {
		net, err := buildNetwork(r.deps[deps[i]].recipe)
		if err == nil {
			spatial.NewMutableIndex(net, spatial.MutableOptions{})
		}
	}), "ms", fmt.Sprintf("(deploy.Uniform + spatial.NewMutableIndex, p50 over %d deployments)", len(deps)))

	regs := min(len(r.deps), 16)
	p.set("layer", "cluster.register_key_ms", medianOf(3*regs, time.Millisecond, func(i int) {
		_, _ = server.DeploymentIDFromRequest(r.deps[i%regs].body)
	}), "ms", fmt.Sprintf("(server.DeploymentIDFromRequest, p50 over %d calls)", 3*regs))
}

// replaySweep surveys the most sampled deployment's dense grid through
// the sweep engine with the server's worker count, and measures how
// busy the workers were.
func (r *runner) replaySweep(p *report, ins []replayInput) error {
	if len(ins) == 0 {
		p.set("layer", "sweep.survey_ms", math.NaN(), "ms", "(no sampled input)")
		p.set("layer", "sweep.parallel_efficiency", math.NaN(), "ratio", "(no sampled input)")
		return nil
	}
	count := map[int]int{}
	hot := ins[0]
	for _, in := range ins {
		count[in.dep]++
		if count[in.dep] > count[hot.dep] {
			hot = in
		}
	}
	k, err := deploy.DenseGridSide(hot.view.Len())
	if err != nil {
		return err
	}
	pts, err := deploy.GridPoints(hot.view.Torus(), k)
	if err != nil {
		return err
	}
	c, err := core.NewCheckerFromSource(hot.view, 0.25*math.Pi)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	wall := timed(nil, func() { _, _ = c.SurveyRegionContext(context.Background(), pts, workers) })
	p.set("layer", "sweep.survey_ms", float64(wall)/1e6, "ms",
		fmt.Sprintf("(SurveyRegionContext of %d points with %d workers, median of %d)", len(pts), workers, replayReps))

	var busy atomic.Int64
	t0 := time.Now()
	_, _ = sweep.RunBatch(context.Background(), pts, workers,
		func() (*core.Checker, error) { return c.Clone(), nil },
		func(w *core.Checker, acc core.RegionStats, _ int, batch []geom.Vec) core.RegionStats {
			b0 := time.Now()
			acc = acc.Merge(w.SurveyBatch(batch))
			busy.Add(int64(time.Since(b0)))
			return acc
		},
		core.RegionStats.Merge)
	elapsed := time.Since(t0)
	p.set("layer", "sweep.parallel_efficiency", float64(busy.Load())/(float64(workers)*float64(elapsed)), "ratio",
		"(Σ batch time / (workers × wall))")
	return nil
}

// replayJournal appends PATCH records into a journal the benchmark owns,
// on the same filesystem as the servers' state: the recorded PATCHes of
// cluster-churn, or, where a workload sends none, records of the same
// shape generated for its deployments.
func (r *runner) replayJournal(p *report) error {
	patches := make([]op, 0, 64)
	for i, a := range r.patches {
		if i%checkEvery == 0 {
			patches = append(patches, a.op)
		}
	}
	source := "recorded PATCHes"
	if len(patches) == 0 {
		ws, err := writePool(r.cfg.seed, r.deps, len(r.deps), 64)
		if err != nil {
			return err
		}
		patches, source = ws, "generated PATCHes"
	}
	dir, err := os.MkdirTemp(r.cfg.dir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := depjournal.Open(filepath.Join(dir, "deployments.jsonl"), depjournal.Options{})
	if err != nil {
		return err
	}
	defer j.Close() // a scratch journal: nothing in it must survive
	for _, d := range r.deps {
		if err := j.Append(depjournal.Record{ID: d.id, Profile: d.recipe.Profile, N: d.recipe.N, Seed: d.recipe.Seed}); err != nil {
			return err
		}
	}
	versions := map[string]uint64{}
	size0 := j.Size()
	var appendErr error
	ms := medianOf(len(patches), time.Millisecond, func(i int) {
		id := r.deps[patches[i].dep].id
		recs := patchRecords(id, patches[i].patch, versions[id])
		versions[id] += uint64(len(recs))
		if err := j.AppendMutations(id, recs); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	p.set("layer", "depjournal.append_ms", ms, "ms",
		fmt.Sprintf("(Journal.AppendMutations of %d %s, p50)", len(patches), source))
	p.set("layer", "depjournal.bytes_per_patch", safeDiv(float64(j.Size()-size0), float64(len(patches))), "bytes",
		fmt.Sprintf("(journal growth per PATCH, n=%d)", len(patches)))
	return nil
}

// patchRecords converts a PATCH to the journal records the service
// writes for it: one per non-empty group, stamped with the version each
// produces.
func patchRecords(id string, p *patchRequest, v0 uint64) []depjournal.Record {
	var recs []depjournal.Record
	if len(p.Reaim) > 0 {
		ops := make([]depjournal.ReaimOp, len(p.Reaim))
		for i, a := range p.Reaim {
			ops[i] = depjournal.ReaimOp{I: a.Index, Orient: a.Orient}
		}
		recs = append(recs, depjournal.Record{ID: id, Op: depjournal.OpReaim, Reaim: ops})
	}
	if len(p.Remove) > 0 {
		recs = append(recs, depjournal.Record{ID: id, Op: depjournal.OpRemove, Remove: p.Remove})
	}
	if len(p.Add) > 0 {
		cams := make([]depjournal.Camera, len(p.Add))
		for i, c := range p.Add {
			cams[i] = depjournal.Camera{X: c.X, Y: c.Y, Orient: c.Orient, Radius: c.Radius, Aperture: c.Aperture, Group: c.Group}
		}
		recs = append(recs, depjournal.Record{ID: id, Op: depjournal.OpAdd, Cameras: cams})
	}
	for i := range recs {
		recs[i].BaseVersion = v0 + uint64(i) + 1
	}
	return recs
}
