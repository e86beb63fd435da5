// Package telemetry is the service layer's dependency-free metrics
// registry: counters, gauges, and nanosecond-bucket histograms, exposed
// in the Prometheus text exposition format. It exists so the fvcd query
// daemon can be scraped by standard tooling without pulling a client
// library into a repository whose only dependency is the Go standard
// library.
//
// All value types are safe for concurrent use (lock-free atomics on the
// hot path); the registry itself serialises only registration and
// export. Registration is idempotent: asking for an already-registered
// (name, labels) series returns the existing value, so request paths may
// look series up lazily. Registering one name with two different metric
// kinds is a programming error and panics.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a series.
type Label struct{ Key, Value string }

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DurationBuckets are the default histogram bounds for request
// latencies, in nanoseconds: 1µs to 10s with 1-2.5-5 steps per decade.
// The per-point coverage kernel answers in microseconds and a saturated
// survey may run for seconds, so the range brackets both extremes.
var DurationBuckets = []int64{
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000,
	10_000_000_000,
}

// PointCostBuckets are histogram bounds for per-point kernel cost, in
// nanoseconds per point: 10ns to 100µs with 1-2.5-5 steps per decade.
// The batch coverage kernel answers dense-grid points in tens of
// nanoseconds; a degenerate deployment (one giant tier, overlay-heavy
// snapshot) can push a point into the tens of microseconds, so the
// range brackets both.
var PointCostBuckets = []int64{
	10, 25, 50,
	100, 250, 500,
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000,
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be ≥ 0 to keep the counter
// monotone; negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of int64 observations
// (conventionally nanoseconds). Buckets are cumulative at export time,
// matching Prometheus histogram semantics; the implicit +Inf bucket is
// always present.
type Histogram struct {
	bounds []int64        // upper bounds, strictly increasing
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// series is one exported time series inside a family.
type series struct {
	labels []Label // sorted by key
	value  any     // *Counter, *Gauge, *Histogram, func() float64, func() int64
}

// family groups every series sharing one metric name.
type family struct {
	name, help, kind string // kind: "counter", "gauge", "histogram"
	series           map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text format. The zero value is not usable; construct with New.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{families: make(map[string]*family)} }

// Counter returns the counter for (name, labels), registering it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, "counter", labels, func() any { return &Counter{} })
	return s.value.(*Counter)
}

// Gauge returns the gauge for (name, labels), registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, "gauge", labels, func() any { return &Gauge{} })
	return s.value.(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time — the natural shape for derived quantities such as a cache hit
// ratio.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func() any { return fn })
}

// CounterFunc registers a counter whose value is read from fn at export
// time; fn must be monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, "counter", labels, func() any { return fn })
}

// Histogram returns the histogram for (name, labels) with the given
// upper bounds (strictly increasing; DurationBuckets when nil),
// registering it on first use.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	s := r.register(name, help, "histogram", labels, func() any {
		b := append([]int64(nil), bounds...)
		return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	})
	return s.value.(*Histogram)
}

// register finds or creates the series for (name, labels). It panics
// when the name is already registered with a different kind — a wiring
// bug, not a runtime condition.
func (r *Registry) register(name, help, kind string, labels []Label, mk func() any) *series {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := labelString(sorted, "")

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: sorted, value: mk()}
		f.series[key] = s
	}
	return s
}

// familySnapshot is a point-in-time copy of one family's series list,
// taken under the registry lock so export can render without it.
type familySnapshot struct {
	name, help, kind string
	series           []*series // in sorted label-key order
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format, families and series in sorted order so the
// output is deterministic. The family and series maps are snapshotted
// under the registry lock — lazy registration on a concurrent request
// may mutate them mid-scrape — and only the lock-free atomic values are
// read afterwards.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]familySnapshot, len(names))
	for i, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, len(keys))
		for j, k := range keys {
			ss[j] = f.series[k]
		}
		snaps[i] = familySnapshot{name: f.name, help: f.help, kind: f.kind, series: ss}
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range snaps {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series (several lines for a histogram).
func writeSeries(b *strings.Builder, f familySnapshot, s *series) {
	switch v := s.value.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(s.labels, ""), v.Value())
	case *Gauge:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(s.labels, ""), v.Value())
	case func() int64:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(s.labels, ""), v())
	case func() float64:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels, ""),
			strconv.FormatFloat(v(), 'g', -1, 64))
	case *Histogram:
		cum := int64(0)
		for i, bound := range v.bounds {
			cum += v.counts[i].Load()
			le := strconv.FormatFloat(float64(bound), 'g', -1, 64)
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(s.labels, le), cum)
		}
		cum += v.counts[len(v.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(s.labels, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %d\n", f.name, labelString(s.labels, ""), v.Sum())
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(s.labels, ""), cum)
	}
}

// labelString renders sorted labels as {k="v",…}; le, when non-empty,
// is appended as the histogram bucket bound. Empty label sets render as
// the empty string. Go's %q escaping (backslash, quote, \n) coincides
// with the exposition format's label-value escaping.
func labelString(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}
