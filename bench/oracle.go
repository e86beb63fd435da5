package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// Wire forms of the answers the oracle reads, field for field the
// service's.
type thetaVerdict struct {
	ThetaPi    float64 `json:"thetaPi"`
	FullView   bool    `json:"fullView"`
	Necessary  bool    `json:"necessary"`
	Sufficient bool    `json:"sufficient"`
}

type pointResult struct {
	Point       pointJSON      `json:"point"`
	NumCovering int            `json:"numCovering"`
	MaxGap      float64        `json:"maxGap"`
	PerTheta    []thetaVerdict `json:"perTheta"`
}

type queryResponse struct {
	ID      string        `json:"id"`
	Version uint64        `json:"version"`
	Results []pointResult `json:"results"`
}

type surveyResponse struct {
	ID                 string  `json:"id"`
	Version            uint64  `json:"version"`
	ThetaPi            float64 `json:"thetaPi"`
	Points             int     `json:"points"`
	FullView           int     `json:"fullView"`
	Necessary          int     `json:"necessary"`
	Sufficient         int     `json:"sufficient"`
	MinCovering        int     `json:"minCovering"`
	MeanCovering       float64 `json:"meanCovering"`
	FullViewFraction   float64 `json:"fullViewFraction"`
	NecessaryFraction  float64 `json:"necessaryFraction"`
	SufficientFraction float64 `json:"sufficientFraction"`
	ElapsedNS          int64   `json:"elapsedNs"`
}

// oracle accumulates mismatches between the service's answers and the
// library's, plus the full-view census the checked answers give.
type oracle struct {
	checked    int
	mismatches []string
	fullView   float64 // full-view verdicts among checked point-θ evaluations
	verdicts   float64
}

func (o *oracle) bad(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// verify checks the recorded answers against the in-process oracle and,
// on the cluster, the replicas' convergence. It prints a summary and
// returns the number of mismatches.
func (r *runner) verify() int {
	o := &oracle{}
	switch r.cfg.w.name {
	case "query-small", "query-bulk":
		srcs := make([]spatial.Source, len(r.deps))
		for i, d := range r.deps {
			srcs[i] = spatial.NewIndex(d.net)
		}
		for _, e := range r.checks {
			o.query(srcs[e.op.dep], r.deps[e.op.dep], e, 0)
		}
	case "survey":
		r.verifySurvey(o)
	case "cluster-churn":
		r.verifyChurn(o)
	}
	fmt.Fprintf(r.out, "check  %d answers checked against the oracle, %d mismatches\n", o.checked, len(o.mismatches))
	for i, m := range o.mismatches {
		if i == 5 {
			fmt.Fprintf(r.out, "mismatch ... %d more\n", len(o.mismatches)-5)
			break
		}
		fmt.Fprintf(r.out, "mismatch %s\n", m)
	}
	r.fvCount, r.fvTotal = o.fullView, o.verdicts
	return len(o.mismatches)
}

// query checks one /query answer point by point against a MultiChecker
// over src: numCovering, maxGap and every verdict must match bit for
// bit, and the answer must name the deployment and version.
func (o *oracle) query(src spatial.Source, d *deployment, e exchange, version uint64) {
	o.checked++
	q := e.op.query
	var resp queryResponse
	if err := json.Unmarshal(e.resp, &resp); err != nil {
		o.bad("query answer does not decode: %v", err)
		return
	}
	if resp.ID != d.id || resp.Version != version {
		o.bad("query answer names %s@%d, want %s@%d", resp.ID, resp.Version, d.id, version)
		return
	}
	thetas := make([]float64, len(q.ThetasPi))
	for i, t := range q.ThetasPi {
		thetas[i] = t * math.Pi
	}
	mc, err := core.NewMultiCheckerFromSource(src, thetas)
	if err != nil {
		o.bad("oracle checker: %v", err)
		return
	}
	if len(resp.Results) != len(q.Points) {
		o.bad("query answer has %d results for %d points", len(resp.Results), len(q.Points))
		return
	}
	for i, p := range q.Points {
		want := mc.Evaluate(geom.V(p.X, p.Y))
		got := resp.Results[i]
		if got.Point != p || got.NumCovering != want.NumCovering ||
			math.Float64bits(got.MaxGap) != math.Float64bits(want.MaxGap) || len(got.PerTheta) != len(want.PerTheta) {
			o.bad("%s point %d: got %+v, oracle numCovering %d maxGap %v", d.id, i, got, want.NumCovering, want.MaxGap)
			return
		}
		for j, v := range want.PerTheta {
			g := got.PerTheta[j]
			if g.ThetaPi != q.ThetasPi[j] || g.FullView != v.FullView || g.Necessary != v.Necessary || g.Sufficient != v.Sufficient {
				o.bad("%s point %d θ %v: got %+v, oracle %+v", d.id, i, q.ThetasPi[j], g, v)
				return
			}
			o.verdicts++
			if g.FullView {
				o.fullView++
			}
		}
	}
}

// oracleSurvey is the library's survey of a deployment's dense grid at
// θ = π/4.
func oracleSurvey(d *deployment) (core.RegionStats, error) {
	c, err := core.NewCheckerFromIndex(spatial.NewIndex(d.net), 0.25*math.Pi)
	if err != nil {
		return core.RegionStats{}, err
	}
	k, err := deploy.DenseGridSide(d.net.Len())
	if err != nil {
		return core.RegionStats{}, err
	}
	pts, err := deploy.GridPoints(d.net.Torus(), k)
	if err != nil {
		return core.RegionStats{}, err
	}
	return c.SurveyRegion(pts), nil
}

// verifySurvey checks every inline survey and every job result against
// Checker.SurveyRegion on the same grid.
func (r *runner) verifySurvey(o *oracle) {
	d := r.deps[0]
	want, err := oracleSurvey(d)
	if err != nil {
		o.bad("oracle survey: %v", err)
		return
	}
	for _, e := range r.checks {
		o.checked++
		var got surveyResponse
		if err := json.Unmarshal(e.resp, &got); err != nil {
			o.bad("survey answer does not decode: %v", err)
			continue
		}
		if got.ID != d.id || got.Points != want.Points || got.FullView != want.FullView ||
			got.Necessary != want.Necessary || got.Sufficient != want.Sufficient ||
			got.MinCovering != want.MinCovering ||
			math.Float64bits(got.MeanCovering) != math.Float64bits(want.MeanCovering) {
			o.bad("survey answer %+v, oracle %+v", got, want)
			continue
		}
		o.fullView += float64(got.FullView)
		o.verdicts += float64(got.Points)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		o.bad("oracle survey encode: %v", err)
		return
	}
	for _, j := range r.jobsDone {
		o.checked++
		if j.body.Result == nil || len(j.body.Result.Stats) != 1 {
			o.bad("job %s finished without one result slot", j.body.ID)
			continue
		}
		got, err := json.Marshal(j.body.Result.Stats[0])
		if err != nil || !bytes.Equal(got, wantJSON) {
			o.bad("job %s result %s, oracle %s", j.body.ID, got, wantJSON)
		}
	}
}

// verifyChurn checks cluster-churn. Every acknowledged PATCH is replayed
// in version order onto a library MutableIndex per deployment; each
// patch must land exactly on the version it was acknowledged with (no
// write lost, duplicated or reordered), and each sampled read is checked
// against the replayed state at the version it reports. Then the
// replicas must hold byte-identical journal digests, and 256 probe
// points per deployment read through the router must match the final
// replayed state.
func (r *runner) verifyChurn(o *oracle) {
	patches := map[int][]ackedPatch{}
	for _, p := range r.patches {
		patches[p.op.dep] = append(patches[p.op.dep], p)
	}
	type read struct {
		e       exchange
		version uint64
	}
	reads := map[int][]read{}
	for _, e := range r.checks {
		var head struct {
			Version uint64 `json:"version"`
		}
		_ = json.Unmarshal(e.resp, &head)
		reads[e.op.dep] = append(reads[e.op.dep], read{e: e, version: head.Version})
	}
	finals := make([]*spatial.MutableIndex, len(r.deps))
	for di, d := range r.deps {
		ix := spatial.NewMutableIndex(d.net, spatial.MutableOptions{})
		finals[di] = ix
		ps := patches[di]
		sort.Slice(ps, func(i, j int) bool { return ps[i].version < ps[j].version })
		rs := reads[di]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].version < rs[j].version })
		next := 0
		checkAt := func() {
			v := ix.Version()
			for ; next < len(rs) && rs[next].version <= v; next++ {
				if rs[next].version < v {
					o.checked++
					o.bad("%s read at version %d: that version never existed in the replayed history", d.id, rs[next].version)
				} else {
					o.query(ix.Snapshot(), d, rs[next].e, v)
				}
			}
		}
		checkAt()
		for _, p := range ps {
			if err := applyPatch(ix, p.op.patch, checkAt); err != nil {
				o.bad("%s replaying patch to version %d: %v", d.id, p.version, err)
				break
			}
			if ix.Version() != p.version {
				o.bad("%s patch acknowledged at version %d replays to version %d", d.id, p.version, ix.Version())
				break
			}
		}
		for ; next < len(rs); next++ {
			o.checked++
			o.bad("%s read at version %d is beyond the acknowledged writes (version %d)", d.id, rs[next].version, ix.Version())
		}
	}

	var first []byte
	for i, n := range r.topo.nodes {
		status, body, err := r.do("GET", n.url+"/v1/internal/digest", nil)
		o.checked++
		if err != nil || status != 200 {
			o.bad("digest of %s: status %d, %v", n.name, status, err)
			continue
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			o.bad("replica %s digests differ from %s's: the cluster did not converge", n.name, r.topo.nodes[0].name)
		}
	}

	g := rng.New(r.cfg.seed, streamReads+1000)
	for di, d := range r.deps {
		op, err := queryOp(r.deps, di, []float64{0.25}, uniformPoints(g, 256))
		if err != nil {
			o.bad("probe query: %v", err)
			continue
		}
		status, body, err := r.do(op.method, r.topo.base+op.path, op.body)
		if err != nil || status != 200 {
			o.checked++
			o.bad("final read of %s: status %d, %v", d.id, status, err)
			continue
		}
		o.query(finals[di].Snapshot(), d, exchange{op: op, resp: body}, finals[di].Version())
		finals[di].WaitRebuild()
	}
}

// applyPatch applies a PATCH to a library index the way the service's
// handler does — re-aims, then removals, then additions, each one
// version step — calling step after each.
func applyPatch(ix *spatial.MutableIndex, p *patchRequest, step func()) error {
	if len(p.Reaim) > 0 {
		ops := make([]spatial.ReaimOp, len(p.Reaim))
		for i, a := range p.Reaim {
			ops[i] = spatial.ReaimOp{Index: a.Index, Orient: a.Orient}
		}
		if _, err := ix.Reaim(ops); err != nil {
			return err
		}
		step()
	}
	if len(p.Remove) > 0 {
		if _, err := ix.Remove(p.Remove); err != nil {
			return err
		}
		step()
	}
	if len(p.Add) > 0 {
		cams := make([]sensor.Camera, len(p.Add))
		for i, c := range p.Add {
			cams[i] = sensor.Camera{Pos: geom.V(c.X, c.Y), Orient: c.Orient, Radius: c.Radius,
				Aperture: c.Aperture, Group: c.Group}
		}
		if _, err := ix.Add(cams); err != nil {
			return err
		}
		step()
	}
	return nil
}
