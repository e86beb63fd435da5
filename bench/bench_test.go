package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// 1000 requests, 15 of them failed: more than the 10 samples beyond
	// p99, so p99 must read as a miss while p95 stays finite.
	vals := make([]float64, 0, 1000)
	for i := 0; i < 985; i++ {
		vals = append(vals, float64(i))
	}
	for i := 0; i < 15; i++ {
		vals = append(vals, math.Inf(1))
	}
	sort.Float64s(vals)
	if got := percentile(vals, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 15 failures of 1000 = %v, want +Inf", got)
	}
	if got := percentile(vals, 0.95); got != 949 {
		t.Errorf("p95 = %v, want 949 (nearest rank)", got)
	}
	if got := percentile(vals, 0.5); got != 499 {
		t.Errorf("p50 = %v, want 499", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"one child", 0, 100, [][2]int64{{10, 40}}, 70},
		{"disjoint children", 0, 100, [][2]int64{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", 0, 100, [][2]int64{{10, 50}, {30, 70}}, 40},
		{"nested children", 0, 100, [][2]int64{{10, 90}, {20, 30}}, 20},
		{"unsorted children", 0, 100, [][2]int64{{60, 70}, {0, 10}}, 80},
		{"child sticking out is negative", 10, 20, [][2]int64{{5, 30}}, -15},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanID(t *testing.T) {
	if id, ok := spanID("bench_span=42"); !ok || id != 42 {
		t.Errorf("spanID = %d, %v", id, ok)
	}
	for _, q := range []string{"", "id=3", "bench_span=", "bench_span=x"} {
		if _, ok := spanID(q); ok {
			t.Errorf("spanID(%q) accepted", q)
		}
	}
}

// streamBytes generates every request body of every workload for a seed.
func streamBytes(t *testing.T, seed uint64) [][]byte {
	t.Helper()
	var out [][]byte
	for _, w := range workloads {
		r := &runner{cfg: runConfig{w: w, seed: seed, sizes: smokeSizes}}
		if err := r.prepare(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, d := range r.deps {
			out = append(out, d.body)
		}
		for _, ops := range [][]op{r.pool, r.reads, r.writes, {r.surveyOp, r.jobOp}} {
			for _, o := range ops {
				out = append(out, []byte(o.method+" "+o.path), o.body)
			}
		}
	}
	return out
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	a, b, c := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d bodies", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, body %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if i < len(c) && bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	// Only the constant parts (such as the survey body) may repeat.
	if same > len(a)/100 {
		t.Errorf("seeds 7 and 8 share %d of %d bodies", same, len(a))
	}
}

func TestOpenLoopChargesLatenessToDueTime(t *testing.T) {
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	const (
		interval = 5 * time.Millisecond
		service  = 20 * time.Millisecond
		events   = 20
	)
	var inflight, peak atomic.Int32
	samples := openLoop(2, interval, int64(events*interval), now, func(k int, due int64) sample {
		s := sample{due: due, start: now(), points: k}
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(service)
		inflight.Add(-1)
		s.end, s.ok = now(), true
		return s
	})
	if len(samples) != events {
		t.Fatalf("%d samples, want %d", len(samples), events)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once with a pool of 2 senders", p)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	for k, s := range samples {
		if s.due != int64(k)*int64(interval) {
			t.Fatalf("request %d due at %v, want %v", k, time.Duration(s.due), time.Duration(k)*interval)
		}
		if s.start < s.due {
			t.Errorf("request %d sent %v before it was due", k, time.Duration(s.due-s.start))
		}
		if s.latencyMs() < float64(service)/1e6 {
			t.Errorf("request %d latency %.2fms is shorter than its service time", k, s.latencyMs())
		}
		// Two senders busy 20ms each serve one request per 10ms while one
		// falls due every 5ms: request k cannot go out before (k/2)·20ms.
		if floor := float64(int64(k/2)*int64(service)-int64(k)*int64(interval)) / 1e6; s.lateMs() < floor {
			t.Errorf("request %d went out %.2fms late, want at least %.2fms", k, s.lateMs(), floor)
		}
	}
}

func TestClosedLoopDueIsPreviousEnd(t *testing.T) {
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	var sent atomic.Int32
	samples := closedLoop(1, int64(30*time.Millisecond), now, func(k int, due int64) sample {
		sent.Add(1)
		s := sample{due: due, start: now()}
		time.Sleep(5 * time.Millisecond)
		s.end = now()
		return s
	})
	if len(samples) < 2 || int(sent.Load()) != len(samples) {
		t.Fatalf("%d samples from %d sends", len(samples), sent.Load())
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].due != samples[i-1].end {
			t.Errorf("request %d due at %d, previous ended at %d", i, samples[i].due, samples[i-1].end)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload for about a second at
// reduced sizes, traced, and checks that each passes its oracle checks
// and prints every metric BENCHMARK.json names, with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(runConfig{
				w: w, seed: 3, window: 700 * time.Millisecond, warmup: 200 * time.Millisecond,
				trace: true, dir: t.TempDir(), sizes: smokeSizes, setups: 1,
			}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			text := out.String()
			for _, m := range spec.EndToEnd {
				line := regexp.MustCompile(`(?m)^e2e +` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` `)
				if !line.MatchString(text) {
					t.Errorf("end-to-end metric %s [%s] not printed", m.Name, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				line := regexp.MustCompile(`(?m)^layer +` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` `)
				if !line.MatchString(text) {
					t.Errorf("per-layer metric %s [%s] not printed", m.Name, m.Unit)
				}
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s missing from the result line (got %+v)", m.Name, v)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("result line has %d metrics, BENCHMARK.json lists %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			if regexp.MustCompile(`(?m)^mismatch `).MatchString(text) {
				t.Errorf("oracle mismatches:\n%s", text)
			}
		})
	}
}
