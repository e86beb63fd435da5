package main

import "testing"

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
