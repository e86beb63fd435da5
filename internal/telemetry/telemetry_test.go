package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeExport checks the text rendering of plain counters
// and gauges: HELP/TYPE headers, sorted label sets, and values.
func TestCounterGaugeExport(t *testing.T) {
	r := New()
	c := r.Counter("requests_total", "Total requests.", L("route", "query"), L("code", "200"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	g := r.Gauge("queue_depth", "Waiting requests.")
	g.Set(3)
	g.Dec()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		`requests_total{code="200",route="query"} 3`, // labels sorted by key
		"# TYPE queue_depth gauge",
		"queue_depth 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistrationIdempotent checks that re-registering (name, labels)
// returns the same series, so lazy per-request lookups accumulate into
// one counter.
func TestRegistrationIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("hits_total", "h", L("k", "v"))
	b := r.Counter("hits_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) produced distinct counters")
	}
	a.Inc()
	if got := b.Value(); got != 1 {
		t.Fatalf("shared counter value = %d, want 1", got)
	}
	if c := r.Counter("hits_total", "h", L("k", "other")); c == a {
		t.Fatal("different label value must make a distinct series")
	}
}

// TestKindMismatchPanics checks that reusing a name with another metric
// kind fails loudly — it is always a wiring bug.
func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "h")
}

// TestHistogramExport checks cumulative bucket counts, the +Inf bucket,
// and sum/count lines.
func TestHistogramExport(t *testing.T) {
	r := New()
	h := r.Histogram("latency_ns", "Latency.", []int64{10, 100, 1000}, L("route", "query"))
	for _, v := range []int64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if got := observations(h); got != 5 {
		t.Fatalf("observations = %d, want 5", got)
	}
	if got := h.Sum(); got != 5125 {
		t.Fatalf("Sum = %d, want 5125", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE latency_ns histogram",
		`latency_ns_bucket{route="query",le="10"} 2`,   // 5, 10 (le is inclusive)
		`latency_ns_bucket{route="query",le="100"} 4`,  // + 11, 99
		`latency_ns_bucket{route="query",le="1000"} 4`, // cumulative
		`latency_ns_bucket{route="query",le="+Inf"} 5`, // + 5000
		`latency_ns_sum{route="query"} 5125`,
		`latency_ns_count{route="query"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFuncMetrics checks callback-backed series.
func TestFuncMetrics(t *testing.T) {
	r := New()
	r.CounterFunc("cache_hits_total", "Hits.", func() int64 { return 7 })
	r.GaugeFunc("hit_ratio", "Ratio.", func() float64 { return 0.875 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "cache_hits_total 7") {
		t.Errorf("missing func counter:\n%s", out)
	}
	if !strings.Contains(out, "hit_ratio 0.875") {
		t.Errorf("missing func gauge:\n%s", out)
	}
}

// TestLabelEscaping checks exposition-format escaping of label values.
func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("m_total", "h", L("path", `a"b\c`+"\n"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `m_total{path="a\"b\\c\n"} 0`; !strings.Contains(b.String(), want) {
		t.Errorf("escaping wrong, want %q in:\n%s", want, b.String())
	}
}

// TestConcurrentUse hammers one registry from many goroutines; the race
// detector is the assertion.
// observations sums h's buckets: the number of values it observed.
func observations(h *Histogram) int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("requests_total", "h", L("w", string(rune('a'+w%4)))).Inc()
				r.Histogram("lat_ns", "h", nil).Observe(int64(i))
				var b strings.Builder
				_ = r.WritePrometheus(&b)
			}
		}(w)
	}
	wg.Wait()
	if got := observations(r.Histogram("lat_ns", "h", nil)); got != 8*200 {
		t.Fatalf("histogram count = %d, want %d", got, 8*200)
	}
}
