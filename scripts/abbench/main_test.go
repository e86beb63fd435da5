package main

import (
	"fmt"
	"io"
	"testing"

	"fullview/internal/kernelbench"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "mean_ms", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "ok_rps", Better: "higher", Bound: 0.25}
	tight := []float64{100, 100, 101, 99, 100}    // IQR 1% of the median
	wide := []float64{60, 80, 100, 120, 140, 100} // IQR ~50% of the median
	for _, tc := range []struct {
		name   string
		m      metricSpec
		pv, cv []float64
		want   string
	}{
		{"tight parent, small change", lower, tight, []float64{105, 104, 106, 105, 105}, "within"},
		{"tight parent, worse beyond bound", lower, tight, []float64{130, 131, 129, 130, 130}, "BEYOND"},
		{"higher-better, worse beyond bound", higher, tight, []float64{70, 71, 69, 70, 70}, "BEYOND"},
		{"wide parent, change within bound", lower, wide, []float64{90, 110, 100, 95, 105, 100}, "unresolved"},
		{"wide parent, change beyond bound", lower, wide, []float64{200, 210, 190, 200, 205, 195}, "BEYOND"},
		{"wide parent, change beats every parent run", lower, wide, []float64{50, 55, 52, 51, 53, 54}, "within"},
		{"wide parent, higher-better beats every run", higher, wide, []float64{150, 160, 155, 151, 152, 153}, "within"},
	} {
		if got := verdict(tc.m, tc.pv, tc.cv); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestKernelReportGate(t *testing.T) {
	report := func(ns ...float64) kernelbench.Report {
		var r kernelbench.Report
		for i, v := range ns {
			r.Results = append(r.Results, kernelbench.Result{Name: fmt.Sprint("Case", i), NsPerPoint: v})
		}
		return r
	}
	parent := []kernelbench.Report{report(100, 100), report(100, 100), report(100, 100)}
	for _, tc := range []struct {
		name string
		cur  []kernelbench.Report
		want int
	}{
		{"same speed", []kernelbench.Report{report(100, 100), report(100, 100), report(100, 100)}, 0},
		{"within +10%", []kernelbench.Report{report(108, 95), report(109, 100), report(130, 90)}, 0},
		{"one case +15% in the median", []kernelbench.Report{report(115, 100), report(80, 100), report(116, 100)}, 1},
		{"both cases beyond", []kernelbench.Report{report(120, 112), report(121, 111), report(119, 113)}, 2},
	} {
		got, err := kernelReport(io.Discard, parent, tc.cur)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %d cases regressed, want %d", tc.name, got, tc.want)
		}
	}
	if _, err := kernelReport(io.Discard, parent, []kernelbench.Report{report(100), report(100), report(100)}); err == nil {
		t.Error("a case missing from the change runs passed the gate")
	}
}

func TestTrajectoryAllocGate(t *testing.T) {
	baseline := kernelbench.Report{Results: []kernelbench.Result{{Name: "Case", NsPerPoint: 100}}}
	// run reports a timed batch of 1000 iterations of 4 points each
	// that made the given number of allocations.
	run := func(ns float64, mallocs int) kernelbench.Report {
		return kernelbench.Report{Results: []kernelbench.Result{{
			Name: "Case", Iterations: 1000, PointsPerOp: 4,
			NsPerPoint: ns, AllocsPerPoint: float64(mallocs) / 4000,
		}}}
	}
	// One stray allocation in a batch is forgiven, in any run.
	deltas, err := trajectory(baseline, []kernelbench.Report{run(90, 1), run(110, 0), run(100, 1)})
	if err != nil {
		t.Fatalf("runs with one stray allocation each failed the gate: %v", err)
	}
	if deltas[0].CurrentNs != 100 || deltas[0].Ratio != 0 {
		t.Errorf("trajectory = %+v, want the median 100 ns/point at ratio 0", deltas[0])
	}
	// Two allocations in one batch of one run fail it: an allocating
	// kernel allocates per point or per operation.
	if _, err := trajectory(baseline, []kernelbench.Report{run(100, 0), run(100, 2), run(100, 0)}); err == nil {
		t.Error("a run with two allocations in its timed batch passed the gate")
	}
	if _, err := trajectory(baseline, []kernelbench.Report{run(100, 4000)}); err == nil {
		t.Error("a kernel allocating once per point passed the gate")
	}
}

func TestAlternateFlipsOrder(t *testing.T) {
	var got []bool
	err := alternate(3, func(change bool) (string, error) {
		got = append(got, change)
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true, false, false, true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("run order (change?) = %v, want %v", got, want)
	}
}
