package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fullview/internal/jobs"
	"fullview/internal/spatial"
)

// workload is one traffic mix. The names are stable: later changes cite
// them. Why each exists is in README.md and BENCHMARK.json.
type workload struct {
	name string
	// tail is the percentile the route lines and client.tail_ms report:
	// the tailPercentile rule applied at the workload's calibrated sample
	// count, then frozen.
	tail float64
	// main is the request class whose latency p50_ms and client.tail_ms
	// report.
	main int
}

var workloads = []workload{
	{name: "query-small", tail: 0.999, main: classQuery},
	{name: "query-bulk", tail: 0.99, main: classQuery},
	{name: "survey", tail: 0.95, main: classSurvey},
	{name: "cluster-churn", tail: 0.99, main: classQuery},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the input sizes of the workloads. fullSizes is the
// benchmark; the smoke test runs smokeSizes.
type sizes struct {
	smallDeps, smallN, smallMaxPoints, smallPool int
	bulkN, bulkPoints, bulkPool                  int
	surveyN                                      int
	churnDeps, churnN, churnPoints, probeN       int
	readPool, writePool                          int
	// churnRate is cluster-churn's total open-loop rate; one request in
	// writeEvery is a PATCH (400 reads/s + 100 writes/s at 500/s).
	churnRate float64
}

const writeEvery = 5

var fullSizes = sizes{
	smallDeps: 24, smallN: 500, smallMaxPoints: 16, smallPool: 8192,
	bulkN: 2000, bulkPoints: 1024, bulkPool: 64,
	surveyN:   2000,
	churnDeps: 6, churnN: 2000, churnPoints: 16, probeN: 16,
	readPool: 4096, writePool: 2000,
	churnRate: 500,
}

var smokeSizes = sizes{
	smallDeps: 24, smallN: 120, smallMaxPoints: 16, smallPool: 512,
	bulkN: 300, bulkPoints: 128, bulkPool: 8,
	surveyN:   300,
	churnDeps: 3, churnN: 300, churnPoints: 16, probeN: 16,
	readPool: 256, writePool: 200,
	churnRate: 100,
}

// runConfig is one benchmark run.
type runConfig struct {
	w        workload
	seed     uint64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	spansOut string // where the traced run writes its spans ("" keeps them in memory only)
	dir      string // scratch root for state dirs
	sizes    sizes
	setups   int  // set-ups timed; the median is setup_s and the last one serves the run
	saturate bool // cluster-churn's mix closed-loop with 2 clients, to find saturation
}

// checkEvery samples one /query answer in this many for the oracle and
// the layer replays.
const checkEvery = 50

// runner holds one run's state.
type runner struct {
	cfg    runConfig
	tr     *tracer
	client *http.Client
	deps   []*deployment
	topo   *topology
	lag    *lagTracker
	out    io.Writer

	pool          []op // closed-loop sequence, cycled
	reads, writes []op // cluster-churn
	surveyOp      op
	jobOp         op
	churned       int // deployments receiving reads and writes; deps[churned] is the probe

	spanSeq  atomic.Uint64
	probeSeq atomic.Uint64
	// owners holds each churned deployment's live index on its owning
	// replica, read at send time for the overlay census.
	owners          []*spatial.MutableIndex
	overlayReads    atomic.Int64
	overlayNonEmpty atomic.Int64
	overlayCameras  atomic.Int64

	mu       sync.Mutex
	checks   []exchange
	patches  []ackedPatch
	jobsDone []jobRecord
	failures []string

	setupTimes []float64
	c0, c1     counters
	// fvCount of fvTotal checked point-θ evaluations were full-view.
	fvCount, fvTotal float64
}

// exchange is one sampled request with the answer it received.
type exchange struct {
	op   op
	resp []byte
}

type ackedPatch struct {
	op      op
	version uint64
}

// jobResponse is the part of the service's job body the benchmark reads.
type jobResponse struct {
	ID         string       `json:"id"`
	State      string       `json:"state"`
	Bands      int          `json:"bands"`
	Result     *jobs.Result `json:"result,omitempty"`
	CreatedNS  int64        `json:"createdNs"`
	StartedNS  int64        `json:"startedNs,omitempty"`
	FinishedNS int64        `json:"finishedNs,omitempty"`
}

type jobRecord struct {
	body     jobResponse
	seenWall int64 // client wall clock (UnixNano) when it saw the job done
	due      int64
}

func (r *runner) now() int64 { return r.tr.now() }

func (r *runner) stateful() bool { return r.cfg.w.name != "query-bulk" }

func (r *runner) replicas() int {
	if r.cfg.w.name == "cluster-churn" {
		return 3
	}
	return 1
}

// prepare builds the deployments (with their oracle networks) and the
// request sequences. Nothing here is timed.
func (r *runner) prepare() error {
	sz := r.cfg.sizes
	var rcs []recipe
	add := func(tag, count, n int) {
		for _, s := range deploymentSeeds(r.cfg.seed, tag, count) {
			rcs = append(rcs, recipe{Profile: profileD, N: n, Seed: s})
		}
	}
	switch r.cfg.w.name {
	case "query-small":
		add(1, sz.smallDeps, sz.smallN)
	case "query-bulk":
		add(2, 1, sz.bulkN)
	case "survey":
		add(3, 1, sz.surveyN)
	case "cluster-churn":
		add(4, sz.churnDeps, sz.churnN)
		add(5, 1, sz.probeN)
		r.churned = sz.churnDeps
	}
	for _, rc := range rcs {
		d, err := newDeployment(rc)
		if err != nil {
			return fmt.Errorf("build deployment %+v: %w", rc, err)
		}
		r.deps = append(r.deps, d)
	}
	var err error
	switch r.cfg.w.name {
	case "query-small":
		r.pool, err = querySmallPool(r.cfg.seed, r.deps, sz.smallPool, sz.smallMaxPoints)
	case "query-bulk":
		r.pool, err = queryBulkPool(r.cfg.seed, r.deps, sz.bulkPool, sz.bulkPoints)
	case "survey":
		r.surveyOp, r.jobOp, err = surveyOps(r.deps[0])
	case "cluster-churn":
		r.reads, err = readPool(r.cfg.seed, r.deps, r.churned, sz.readPool, sz.churnPoints)
		if err == nil {
			r.writes, err = writePool(r.cfg.seed, r.deps, r.churned, sz.writePool)
		}
	}
	return err
}

// setupOnce boots the workload's servers, waits until they are ready,
// registers every deployment (checking each returned id against the
// oracle's fingerprint) and, on a cluster, waits until every replica
// holds every registration.
func (r *runner) setupOnce() (*topology, time.Duration, error) {
	t0 := time.Now()
	stateDir := ""
	if r.stateful() {
		d, err := os.MkdirTemp(r.cfg.dir, "state-")
		if err != nil {
			return nil, 0, err
		}
		stateDir = d
	}
	opts := bootOptions{replicas: r.replicas(), stateDir: stateDir}
	if r.cfg.trace {
		opts.wrap = r.tr.wrap
		if r.lag != nil {
			opts.internal = func(int) { r.lag.notify() }
		}
	}
	topo, err := boot(opts)
	if err != nil {
		os.RemoveAll(stateDir)
		return nil, 0, err
	}
	topo.root = stateDir
	fail := func(err error) (*topology, time.Duration, error) {
		topo.close()
		return nil, 0, err
	}
	if err := topo.waitReady(r.client); err != nil {
		return fail(err)
	}
	for _, d := range r.deps {
		status, body, err := r.do(http.MethodPost, topo.base+"/v1/deployments", d.body)
		if err != nil {
			return fail(fmt.Errorf("register: %w", err))
		}
		var reg struct {
			ID string `json:"id"`
		}
		if status/100 != 2 || json.Unmarshal(body, &reg) != nil {
			return fail(fmt.Errorf("register answered %d: %s", status, body))
		}
		if reg.ID != d.id {
			return fail(fmt.Errorf("register returned id %s, the oracle fingerprint is %s", reg.ID, d.id))
		}
	}
	if len(topo.nodes) > 1 {
		if err := topo.waitConverged(len(r.deps)); err != nil {
			return fail(err)
		}
	}
	return topo, time.Since(t0), nil
}

// setup times cfg.setups set-ups, keeps the last for the run, and
// reports the median as setup_s: one set-up is tens of milliseconds on
// the small workloads, so a single one would be mostly noise.
func (r *runner) setup() error {
	for i := 0; i < r.cfg.setups; i++ {
		topo, d, err := r.setupOnce()
		if err != nil {
			return err
		}
		r.setupTimes = append(r.setupTimes, d.Seconds())
		if i < r.cfg.setups-1 {
			topo.close()
			continue
		}
		r.topo = topo
	}
	return nil
}

// do sends one request and reads the whole answer.
func (r *runner) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// fail records a failed request; the first few are kept for the report.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// send issues one op and returns its sample. Requests due in even
// seconds of a traced run carry a span tag; the untagged half is the
// baseline of trace.overhead_pct.
func (r *runner) send(o op, k int, due int64) sample {
	s := sample{class: o.class, points: o.points, due: due}
	s.traced = r.cfg.trace && (due/int64(time.Second))%2 == 0
	url := r.topo.base + o.path
	var id uint64
	if s.traced {
		id = r.spanSeq.Add(1)
		url += "?" + spanTag + "=" + strconv.FormatUint(id, 10)
	}
	inWindow := due >= int64(r.cfg.warmup)
	if o.class == classQuery && r.owners != nil && inWindow {
		ov := r.owners[o.dep].OverlaySize()
		r.overlayReads.Add(1)
		r.overlayCameras.Add(int64(ov))
		if ov > 0 {
			r.overlayNonEmpty.Add(1)
		}
	}
	if o.class == classPatch && o.dep == r.churned && r.lag != nil {
		r.lag.expect(r.probeSeq.Add(1), r.now())
	}
	s.start = r.now()
	var (
		status int
		body   []byte
		err    error
	)
	if o.class == classJob {
		status, body, err = r.runJob(o, url)
	} else {
		status, body, err = r.do(o.method, url, o.body)
	}
	s.end = r.now()
	if s.traced {
		r.tr.add(span{id: id, layer: layerClient, class: o.class, start: s.start, end: s.end})
	}
	s.ok = err == nil && status/100 == 2
	if !s.ok {
		r.fail("%s: status %d, err %v: %.200s", o.describe(), status, err, body)
		return s
	}
	switch o.class {
	case classQuery:
		if k%checkEvery == 0 {
			r.record(exchange{op: o, resp: body})
		}
	case classSurvey:
		r.record(exchange{op: o, resp: body})
	case classJob:
		var jr jobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			s.ok = false
			r.fail("job body: %v", err)
			return s
		}
		r.mu.Lock()
		r.jobsDone = append(r.jobsDone, jobRecord{body: jr, seenWall: time.Now().UnixNano(), due: due})
		r.mu.Unlock()
	case classPatch:
		var pr struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			s.ok = false
			r.fail("patch body: %v", err)
			return s
		}
		r.mu.Lock()
		r.patches = append(r.patches, ackedPatch{op: o, version: pr.Version})
		r.mu.Unlock()
	}
	return s
}

func (r *runner) record(e exchange) {
	r.mu.Lock()
	r.checks = append(r.checks, e)
	r.mu.Unlock()
}

// runJob submits a survey job and follows its event stream until the
// job is terminal; it returns the final job body. The stream delivers
// the terminal snapshot as soon as the job finishes, so the measured
// time has no polling quantum in it.
func (r *runner) runJob(o op, submitURL string) (int, []byte, error) {
	status, body, err := r.do(o.method, submitURL, o.body)
	if err != nil || status != http.StatusAccepted {
		return status, body, err
	}
	var sub jobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return 0, body, err
	}
	resp, err := r.client.Get(r.topo.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "snapshot" {
			continue
		}
		var jr jobResponse
		if err := json.Unmarshal([]byte(data), &jr); err != nil {
			return 0, nil, fmt.Errorf("job event: %w", err)
		}
		if !jobs.State(jr.State).Terminal() {
			continue
		}
		// Drain the rest of the stream so the connection is reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		if jr.State != string(jobs.StateDone) {
			return http.StatusInternalServerError, []byte(data), nil
		}
		return http.StatusOK, []byte(data), nil
	}
	return 0, nil, fmt.Errorf("job %s: event stream ended before the job finished (%v)", sub.ID, sc.Err())
}

// next returns request k of a closed-loop workload.
func (r *runner) next(k int) op {
	switch r.cfg.w.name {
	case "survey":
		if k%2 == 0 {
			return r.surveyOp
		}
		return r.jobOp
	case "cluster-churn":
		return r.churnOp(k)
	}
	return r.pool[k%len(r.pool)]
}

// churnOp maps event k of cluster-churn's schedule to a read or a write:
// one event in writeEvery is the next PATCH, the rest are reads.
func (r *runner) churnOp(k int) op {
	if k%writeEvery == writeEvery-1 {
		return r.writes[(k/writeEvery)%len(r.writes)]
	}
	return r.reads[(k-(k+1)/writeEvery)%len(r.reads)]
}

// counters are the server-side counters read at the window's edges.
type counters struct {
	hits, misses int64 // depcache lookups, summed over the nodes
	prom         map[string]float64
	rebuilds     int64 // of the churned deployments' indexes on their owners
}

func (r *runner) counters() counters {
	c := counters{prom: map[string]float64{}}
	for _, n := range r.topo.nodes {
		st := n.srv.Cache().Stats()
		c.hits += st.Hits
		c.misses += st.Misses
		var b strings.Builder
		_ = n.srv.Registry().WritePrometheus(&b)
		sumProm(c.prom, b.String())
	}
	if r.topo.router != nil {
		var b strings.Builder
		_ = r.topo.router.Registry().WritePrometheus(&b)
		sumProm(c.prom, b.String())
	}
	for _, ix := range r.owners {
		c.rebuilds += ix.Rebuilds()
	}
	return c
}

// sumProm adds every sample line of a Prometheus text exposition into
// dst, keyed by metric name with the labels dropped.
func sumProm(dst map[string]float64, text string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			dst[name] += v
		}
	}
}

func (r *runner) delta(name string) float64 { return r.c1.prom[name] - r.c0.prom[name] }

// load drives the workload from the epoch to the end of the window and
// reads the counters at the window's edges.
func (r *runner) load() []sample {
	warm := int64(r.cfg.warmup)
	stop := warm + int64(r.cfg.window)
	var edges sync.WaitGroup
	edges.Add(1)
	go func() {
		defer edges.Done()
		sleepUntil(r.now, warm)
		r.c0 = r.counters()
		sleepUntil(r.now, stop)
		r.c1 = r.counters()
	}()
	var samples []sample
	send := func(k int, due int64) sample { return r.send(r.next(k), k, due) }
	switch {
	case r.cfg.w.name == "cluster-churn" && !r.cfg.saturate:
		interval := time.Duration(float64(time.Second) / r.cfg.sizes.churnRate)
		samples = openLoop(2, interval, stop, r.now, send)
	case r.cfg.w.name == "query-small" || r.cfg.saturate:
		samples = closedLoop(2, stop, r.now, send)
	default:
		samples = closedLoop(1, stop, r.now, send)
	}
	edges.Wait()
	return samples
}

func sleepUntil(now func() int64, t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// grabOwners pins each churned deployment's live index on its owner.
func (r *runner) grabOwners() error {
	r.owners = make([]*spatial.MutableIndex, r.churned)
	for i := 0; i < r.churned; i++ {
		n := r.topo.nodes[r.topo.owner(r.deps[i].id)]
		e, ok := n.srv.Cache().Get(r.deps[i].id)
		if !ok {
			return fmt.Errorf("deployment %s not cached on its owner %s", r.deps[i].id, n.name)
		}
		r.owners[i] = e.Index
	}
	return nil
}

// metricDef names a reported metric; the tables below must match
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ok_rps", "1/s"},
	{"points_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"mean_ms", "ms"},
	{"heap_mb", "MB"},
}

var layerMetrics = []metricDef{
	{"client.tail_ms", "ms"},
	{"net.self_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.response_bytes_per_point", "bytes"},
	{"server.checker_build_us", "us"},
	{"depcache.hit_ratio", "ratio"},
	{"depcache.lookups", "count"},
	{"depcache.misses", "count"},
	{"depcache.revive_ms", "ms"},
	{"spatial.gather_ns_per_point", "ns"},
	{"spatial.gather_batch_ns_per_point", "ns"},
	{"spatial.gather_overlay_ns_per_point", "ns"},
	{"spatial.candidates_per_point", "count"},
	{"spatial.overlay_size_mean", "count"},
	{"spatial.rebuilds", "count"},
	{"core.maxgap_ns_per_point", "ns"},
	{"core.occupancy_ns_per_point", "ns"},
	{"core.evaluate_ns_per_point", "ns"},
	{"core.evaluate_batch_ns_per_point", "ns"},
	{"core.survey_batch_ns_per_point", "ns"},
	{"sweep.survey_ms", "ms"},
	{"sweep.parallel_efficiency", "ratio"},
	{"depjournal.append_ms", "ms"},
	{"depjournal.bytes_per_patch", "bytes"},
	{"cluster.register_key_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.failover_reads", "count"},
	{"cluster.shard_errors", "count"},
	{"cluster.mirror_sent", "count"},
	{"cluster.mirror_retries", "count"},
	{"cluster.mirror_dropped", "count"},
	{"loadgen.late_tail_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.negative_self_share", "ratio"},
}

// report collects the metrics of a run and prints one line per metric.
type report struct {
	out    io.Writer
	values map[string]float64
}

func newReport(out io.Writer) *report {
	return &report{out: out, values: map[string]float64{}}
}

// set records a metric and prints it with a note saying how it was
// measured (percentile and sample count for timings).
func (p *report) set(kind, name string, v float64, unit, note string) {
	p.values[name] = v
	fmt.Fprintf(p.out, "%-6s %-36s %14s %-6s %s\n", kind, name, formatValue(v), unit, note)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// jsonValue makes a measured value encodable: ±Inf (failed requests in a
// latency) becomes ±MaxFloat64 and NaN (no samples) becomes 0.
func jsonValue(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// pct formats a percentile as p50, p99, p99.9.
func pct(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// latencies returns the latencies (ms) of a class's samples, failures as
// +Inf, sorted.
func latencies(samples []sample, class int) []float64 {
	var out []float64
	for _, s := range samples {
		if s.class != class {
			continue
		}
		if s.ok {
			out = append(out, s.latencyMs())
		} else {
			out = append(out, math.Inf(1))
		}
	}
	sort.Float64s(out)
	return out
}

// inWindow returns the samples due inside the measured window.
func (r *runner) inWindow(samples []sample) []sample {
	warm := int64(r.cfg.warmup)
	stop := warm + int64(r.cfg.window)
	var out []sample
	for _, s := range samples {
		if s.due >= warm && s.due < stop {
			out = append(out, s)
		}
	}
	return out
}

// outcome is what main prints as the run's last line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload run end to end and returns its outcome.
func run(cfg runConfig, out io.Writer) (outcome, error) {
	tr := &tracer{epoch: time.Now()}
	r := &runner{
		cfg: cfg,
		tr:  tr,
		out: out,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
	}
	defer r.client.CloseIdleConnections()
	if cfg.trace && cfg.w.name == "cluster-churn" {
		r.lag = newLagTracker(tr.now)
	}
	if err := r.prepare(); err != nil {
		return outcome{}, err
	}
	if err := r.setup(); err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	defer r.topo.close()

	mode := "closed loop, 1 client"
	switch {
	case cfg.w.name == "cluster-churn" && !cfg.saturate:
		mode = fmt.Sprintf("open loop, %.0f req/s (1 in %d a PATCH), 2 senders", cfg.sizes.churnRate, writeEvery)
	case cfg.w.name == "query-small" || cfg.saturate:
		mode = "closed loop, 2 clients"
	}
	fmt.Fprintf(out, "workload %s seed %d window %.1fs warm-up %.1fs trace %v (%s)\n",
		cfg.w.name, cfg.seed, cfg.window.Seconds(), cfg.warmup.Seconds(), cfg.trace, mode)

	if r.churned > 0 {
		if err := r.grabOwners(); err != nil {
			return outcome{}, err
		}
	}
	// Due times count from the start of the warm-up. Nothing has read the
	// clock yet: set-up requests carry no span tag.
	tr.epoch = time.Now()
	stopLag := r.startLag()
	all := r.load()
	if r.topo.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := r.topo.flushMirrors(ctx)
		cancel()
		if err != nil {
			r.fail("%v", err)
		}
	}
	stopLag()

	win := r.inWindow(all)
	rep := newReport(out)
	// The end-to-end block is printed last: heap_mb is read only once the
	// benchmark's own per-request records are released. A traced run's
	// end-to-end numbers carry the tracing overhead; they are printed for
	// reference, and only the per-layer metrics go into its result line.
	var e2eLines bytes.Buffer
	e2e := newReport(&e2eLines)
	attempted, failed := r.reportE2E(e2e, win)
	r.reportRoutes(win)
	mismatches := r.verify()
	r.reportCensus(rep, win)
	if cfg.trace {
		if err := r.reportLayers(rep, win); err != nil {
			return outcome{}, err
		}
		if cfg.spansOut != "" {
			if err := r.writeSpans(cfg.spansOut); err != nil {
				fmt.Fprintf(out, "spans: %v\n", err)
			}
		}
	}
	r.mu.Lock()
	for _, f := range r.failures {
		fmt.Fprintf(out, "failure %s\n", f)
	}
	r.mu.Unlock()

	r.release()
	// Twice: the first collection only moves sync.Pool contents (encoder
	// and buffer pools of the HTTP and JSON layers) to the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e.set("e2e", "heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB",
		"(live heap after GC at the end of the run: the servers' state)")
	if _, err := out.Write(e2eLines.Bytes()); err != nil {
		return outcome{}, err
	}

	res := outcome{
		Correct:   mismatches == 0,
		Attempted: attempted,
		Failed:    failed + mismatches,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := e2eMetrics, e2e.values
	if cfg.trace {
		defs, vals = layerMetrics, rep.values
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return outcome{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: jsonValue(v), Unit: d.unit}
	}
	return res, nil
}

// release drops everything the benchmark itself holds — request pools,
// oracle networks, per-request records, spans — so that the live heap
// left is the servers' own state.
func (r *runner) release() {
	r.pool, r.reads, r.writes, r.deps, r.owners = nil, nil, nil, nil, nil
	r.mu.Lock()
	r.checks, r.patches, r.jobsDone = nil, nil, nil
	r.mu.Unlock()
	r.tr.mu.Lock()
	r.tr.spans = nil
	r.tr.mu.Unlock()
}

// startLag starts the replication-lag tracker of a traced cluster run;
// the returned function waits briefly for the last probe writes to
// become visible, then stops it.
func (r *runner) startLag() func() {
	if r.lag == nil {
		return func() {}
	}
	probe := r.deps[r.churned].id
	handlers := make([]http.Handler, len(r.topo.nodes))
	for i, n := range r.topo.nodes {
		handlers[i] = n.srv.Handler()
	}
	r.lag.watch(probe, r.topo.owner(probe), handlers)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.lag.run(ctx)
	}()
	return func() {
		deadline := time.Now().Add(2 * time.Second)
		for _, unseen := r.lag.result(); unseen > 0 && time.Now().Before(deadline); _, unseen = r.lag.result() {
			time.Sleep(time.Millisecond)
		}
		cancel()
		wg.Wait()
	}
}

// reportE2E computes the end-to-end metrics over the window.
func (r *runner) reportE2E(p *report, win []sample) (attempted, failed int) {
	w := r.cfg.w
	// The window's length as measured: from its start to the end of the
	// last request due inside it.
	last := int64(r.cfg.warmup)
	for _, s := range win {
		last = max(last, s.end)
	}
	secs := float64(last-int64(r.cfg.warmup)) / 1e9
	okN, points := 0, 0
	var all []float64
	for _, s := range win {
		if s.ok {
			okN++
			points += s.points
			all = append(all, s.latencyMs())
		} else {
			all = append(all, math.Inf(1))
		}
	}
	lat := latencies(win, w.main)
	main := classNames[w.main]
	p.set("e2e", "setup_s", median(r.setupTimes), "s", fmt.Sprintf("(median of %d set-ups)", len(r.setupTimes)))
	p.set("e2e", "ok_rps", float64(okN)/secs, "1/s", fmt.Sprintf("(%d ok of %d in %.1fs)", okN, len(win), secs))
	p.set("e2e", "points_per_s", float64(points)/secs, "1/s", fmt.Sprintf("(%d points)", points))
	p.set("e2e", "p50_ms", percentile(lat, 0.5), "ms", fmt.Sprintf("(%s p50, n=%d)", main, len(lat)))
	p.set("e2e", "mean_ms", mean(all), "ms", fmt.Sprintf("(all classes, n=%d)", len(all)))
	failed = len(win) - okN
	fmt.Fprintf(r.out, "info   fail_ratio %s (%d of %d attempts)\n", formatValue(safeDiv(float64(failed), float64(len(win)))), failed, len(win))
	fmt.Fprintf(r.out, "info   late_ms %s (send − due, %s, n=%d)\n", formatValue(lateTail(win, w.tail)), pct(w.tail), len(win))
	return len(win), failed
}

// lateTail is the q-quantile of how late the window's requests went out.
func lateTail(win []sample, q float64) float64 {
	late := make([]float64, len(win))
	for i, s := range win {
		late[i] = s.lateMs()
	}
	sort.Float64s(late)
	return percentile(late, q)
}

// reportRoutes prints p50 and tail per request class. The tail is the
// workload's frozen percentile; the tailPercentile rule wants the n shown.
func (r *runner) reportRoutes(win []sample) {
	q := r.cfg.w.tail
	for c := 0; c < numClasses; c++ {
		lat := latencies(win, c)
		if len(lat) == 0 {
			continue
		}
		fmt.Fprintf(r.out, "route  %-8s p50 %s ms  %s %s ms  (n=%d, the %s rule wants n>=%d)\n", classNames[c],
			formatValue(percentile(lat, 0.5)), pct(q), formatValue(percentile(lat, q)), len(lat),
			pct(q), int(math.Ceil(tailBeyond/(1-q)-1e-9)))
	}
}

// reportCensus prints the share of each input property an optimisation
// may depend on, and records the ones kept as per-layer metrics.
func (r *runner) reportCensus(p *report, win []sample) {
	misses := float64(r.c1.misses - r.c0.misses)
	lookups := float64(r.c1.hits-r.c0.hits) + misses
	p.set("census", "cache_miss_share", safeDiv(misses, lookups), "ratio", fmt.Sprintf("(%.0f misses of %.0f lookups)", misses, lookups))

	reads := r.overlayReads.Load()
	p.set("census", "overlay_read_share", safeDiv(float64(r.overlayNonEmpty.Load()), float64(reads)), "ratio",
		fmt.Sprintf("(reads sent while their deployment's overlay was non-empty, n=%d)", reads))

	buckets := []int{1, 2, 4, 8, 16, 64, 256, 1024, 1 << 30}
	counts := make([]int, len(buckets))
	for _, s := range win {
		for i, b := range buckets {
			if s.points <= b {
				counts[i]++
				break
			}
		}
	}
	var hist []string
	lo := 1
	for i, b := range buckets {
		if counts[i] > 0 {
			label := fmt.Sprintf("%d-%d", lo, b)
			switch {
			case lo == b:
				label = fmt.Sprint(b)
			case b == 1<<30:
				label = fmt.Sprintf(">%d", lo-1)
			}
			hist = append(hist, fmt.Sprintf("%s:%d", label, counts[i]))
		}
		lo = b + 1
	}
	fmt.Fprintf(r.out, "census %-36s %s\n", "points_per_request", strings.Join(hist, " "))

	fv, total := r.fvCount, r.fvTotal
	p.set("census", "fullview_share", safeDiv(fv, total), "ratio",
		fmt.Sprintf("(full-view verdicts among checked point-θ evaluations, n=%.0f)", total))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
