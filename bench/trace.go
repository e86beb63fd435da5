package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spanSet is every span one request id produced.
type spanSet struct {
	client *span
	router *span
	shards [][2]int64
}

func (r *runner) spanSets() map[uint64]*spanSet {
	sets := map[uint64]*spanSet{}
	get := func(id uint64) *spanSet {
		s, ok := sets[id]
		if !ok {
			s = &spanSet{}
			sets[id] = s
		}
		return s
	}
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	for i := range r.tr.spans {
		sp := &r.tr.spans[i]
		s := get(sp.id)
		switch {
		case sp.layer == layerClient:
			s.client = sp
		case sp.layer == layerRouter:
			s.router = sp
		default:
			s.shards = append(s.shards, [2]int64{sp.start, sp.end})
		}
	}
	return sets
}

// reportLayers computes the per-layer metrics of a traced run: span
// self times at the live boundaries, server-side counters, and the
// replays of sampled inputs into the layers' exported functions.
func (r *runner) reportLayers(p *report, win []sample) error {
	w := r.cfg.w
	warm, stop := int64(r.cfg.warmup), int64(r.cfg.warmup+r.cfg.window)

	netSelf := map[int][]float64{}
	routerSelf := map[int][]float64{}
	handler := map[int][]float64{}
	boundaries, negative := 0, 0
	for _, s := range r.spanSets() {
		if s.client == nil || s.client.start < warm || s.client.start >= stop || len(s.shards) == 0 {
			continue
		}
		c := s.client.class
		outer := s.shards
		if s.router != nil {
			outer = [][2]int64{{s.router.start, s.router.end}}
			rs := selfTime(s.router.start, s.router.end, s.shards)
			routerSelf[c] = append(routerSelf[c], float64(rs)/1e6)
			boundaries++
			if rs < 0 {
				negative++
			}
		}
		ns := selfTime(s.client.start, s.client.end, outer)
		netSelf[c] = append(netSelf[c], float64(ns)/1e6)
		boundaries++
		if ns < 0 {
			negative++
		}
		for _, sh := range s.shards {
			handler[c] = append(handler[c], float64(sh[1]-sh[0])/1e6)
		}
	}
	main := classNames[w.main]
	p.set("layer", "net.self_ms", median(netSelf[w.main]), "ms",
		fmt.Sprintf("(%s client span − outermost server span, p50, n=%d)", main, len(netSelf[w.main])))
	p.set("layer", "server.handler_ms", median(handler[w.main]), "ms",
		fmt.Sprintf("(%s shard handler span, p50, n=%d)", main, len(handler[w.main])))
	for c := 0; c < numClasses; c++ {
		if len(handler[c]) > 0 {
			p.set("layer", "server.handler_ms."+routeName(c), median(handler[c]), "ms",
				fmt.Sprintf("(p50, n=%d)", len(handler[c])))
		}
		if len(routerSelf[c]) > 0 {
			p.set("layer", "cluster.router_self_ms."+routeName(c), median(routerSelf[c]), "ms",
				fmt.Sprintf("(router span − shard spans, p50, n=%d)", len(routerSelf[c])))
		}
	}
	p.set("layer", "trace.negative_self_share", safeDiv(float64(negative), float64(boundaries)), "ratio",
		fmt.Sprintf("(%d negative self times of %d live boundaries)", negative, boundaries))

	var traced, untraced []float64
	for _, s := range win {
		if s.class != w.main || !s.ok {
			continue
		}
		if s.traced {
			traced = append(traced, s.latencyMs())
		} else {
			untraced = append(untraced, s.latencyMs())
		}
	}
	base := median(untraced)
	p.set("layer", "trace.overhead_pct", 100*(median(traced)-base)/base, "%",
		fmt.Sprintf("(%s p50 of tagged vs untagged requests, n=%d/%d)", main, len(traced), len(untraced)))
	lat := latencies(win, w.main)
	p.set("layer", "client.tail_ms", percentile(lat, w.tail), "ms", fmt.Sprintf("(%s %s, n=%d)", main, pct(w.tail), len(lat)))
	p.set("layer", "loadgen.late_tail_ms", lateTail(win, w.tail), "ms", fmt.Sprintf("(send − due, %s, n=%d)", pct(w.tail), len(win)))

	hits := float64(r.c1.hits - r.c0.hits)
	misses := float64(r.c1.misses - r.c0.misses)
	p.set("layer", "depcache.hit_ratio", safeDiv(hits, hits+misses), "ratio", fmt.Sprintf("(hits of %.0f lookups)", hits+misses))
	p.set("layer", "depcache.lookups", hits+misses, "count", "(Cache().Stats() delta over the window)")
	p.set("layer", "depcache.misses", misses, "count", "(Cache().Stats() delta over the window)")

	reads := r.overlayReads.Load()
	p.set("layer", "spatial.overlay_size_mean", safeDiv(float64(r.overlayCameras.Load()), float64(reads)), "count",
		fmt.Sprintf("(MutableIndex.OverlaySize at read send, n=%d)", reads))
	p.set("layer", "spatial.rebuilds", float64(r.c1.rebuilds-r.c0.rebuilds), "count",
		"(MutableIndex.Rebuilds of the churned deployments on their owners, delta over the window)")

	for _, m := range []struct{ name, family string }{
		{"cluster.retries", "fvcd_cluster_retries_total"},
		{"cluster.failover_reads", "fvcd_cluster_failover_reads_total"},
		{"cluster.shard_errors", "fvcd_cluster_shard_errors_total"},
		{"cluster.mirror_sent", "fvcd_cluster_mirror_sent_total"},
		{"cluster.mirror_retries", "fvcd_mirror_retries_total"},
		{"cluster.mirror_dropped", "fvcd_cluster_mirror_dropped_total"},
	} {
		p.set("layer", m.name, r.delta(m.family), "count", "("+m.family+" delta over the window)")
	}

	if r.lag != nil {
		lags, unseen := r.lag.result()
		sort.Float64s(lags)
		p.set("layer", "cluster.repl_lag_p50_ms", percentile(lags, 0.5), "ms",
			fmt.Sprintf("(probe PATCH send → version visible on every non-owner, p50, n=%d, %d never seen)", len(lags), unseen))
		p.set("layer", "cluster.repl_lag_tail_ms", percentile(lags, lagTail), "ms", fmt.Sprintf("(%s, n=%d)", pct(lagTail), len(lags)))
	}
	if len(r.jobsDone) > 0 {
		r.reportJobs(p, handler[classSurvey])
	}
	return r.replay(p)
}

// lagTail is the replication-lag tail percentile: tailPercentile at the
// ~200 probe writes of a 20 s cluster-churn window, frozen.
const lagTail = 0.95

// routeName names a class as the server's route metrics do.
func routeName(class int) string {
	if class == classJob {
		return "job_submit"
	}
	return classNames[class]
}

// reportJobs breaks the survey workload's jobs into queue wait, run, and
// the client's observation delay, from the job bodies' own timestamps.
func (r *runner) reportJobs(p *report, surveyHandler []float64) {
	var wait, runMs, observe []float64
	bands := 0
	warm := int64(r.cfg.warmup)
	for _, j := range r.jobsDone {
		if j.due < warm {
			continue
		}
		b := j.body
		wait = append(wait, float64(b.StartedNS-b.CreatedNS)/1e6)
		runMs = append(runMs, float64(b.FinishedNS-b.StartedNS)/1e6)
		observe = append(observe, float64(j.seenWall-b.FinishedNS)/1e6)
		bands = b.Bands
	}
	n := fmt.Sprintf("n=%d", len(runMs))
	p.set("layer", "jobs.queue_wait_ms", median(wait), "ms", "(startedNs − createdNs, p50, "+n+")")
	p.set("layer", "jobs.run_ms", median(runMs), "ms", "(finishedNs − startedNs, p50, "+n+")")
	p.set("layer", "jobs.observe_ms", median(observe), "ms", "(client sees done − finishedNs, p50, "+n+")")
	p.set("layer", "jobs.overhead_ms", median(runMs)-median(surveyHandler), "ms", "(jobs.run_ms − inline survey handler p50)")
	p.set("layer", "jobs.bands", float64(bands), "count", "(bands per job)")
}

// writeSpans writes every span as one JSON object per line.
func (r *runner) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.tr.mu.Lock()
	for _, s := range r.tr.spans {
		layer := "client"
		switch {
		case s.layer == layerRouter:
			layer = "router"
		case s.layer >= layerShard:
			layer = r.topo.nodes[s.layer-layerShard].name
		}
		rec := map[string]any{"id": s.id, "layer": layer, "startNs": s.start, "endNs": s.end}
		if s.layer == layerClient {
			rec["class"] = classNames[s.class]
		}
		if err := enc.Encode(rec); err != nil {
			break
		}
	}
	r.tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
