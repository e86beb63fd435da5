package kernelbench

import (
	"strings"
	"testing"
)

func report(pairs ...any) Report {
	var r Report
	for i := 0; i < len(pairs); i += 2 {
		r.Results = append(r.Results, Result{
			Name:       pairs[i].(string),
			NsPerPoint: pairs[i+1].(float64),
		})
	}
	return r
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := report("A", 100.0, "B", 200.0, "C", 50.0)
	curr := report("B", 225.0, "A", 105.0, "C", 40.0) // order must not matter
	deltas, err := Compare(base, curr)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	// Baseline order preserved; only B is past the 10% gate.
	if deltas[0].Name != "A" || deltas[1].Name != "B" || deltas[2].Name != "C" {
		t.Fatalf("delta order %v", deltas)
	}
	for _, d := range deltas {
		want := d.Name == "B"
		if got := d.Regressed(0.10); got != want {
			t.Errorf("%s: Regressed(0.10) = %v (ratio %+.3f), want %v", d.Name, got, d.Ratio, want)
		}
	}
	// Exactly at the gate clears it (strictly-greater contract); the
	// values are binary-exact so the ratio is exactly 0.125.
	exact := Delta{Name: "X", BaselineNs: 128, CurrentNs: 144, Ratio: 144.0/128.0 - 1}
	if exact.Regressed(0.125) {
		t.Errorf("case at exactly the gate flagged as regression (ratio %+.4f)", exact.Ratio)
	}
}

func TestCompareRefusesMissingCase(t *testing.T) {
	// Both directions are hard failures: a dropped case must not read
	// as "no regression", and a new (or renamed) case must not run
	// ungated until someone re-baselines.
	_, err := Compare(report("A", 100.0, "B", 90.0), report("A", 100.0))
	if err == nil {
		t.Fatal("baseline case missing from current run was accepted")
	}
	if !strings.Contains(err.Error(), "B") || !strings.Contains(err.Error(), "missing from the current run") {
		t.Fatalf("dropped-case error does not name the case and direction: %v", err)
	}
	_, err = Compare(report("A", 100.0), report("A", 100.0, "New", 50.0))
	if err == nil {
		t.Fatal("current case missing from the baseline was accepted")
	}
	if !strings.Contains(err.Error(), "New") || !strings.Contains(err.Error(), "missing from the baseline") {
		t.Fatalf("new-case error does not name the case and direction: %v", err)
	}
	// A rename is both at once; either direction may fire, but it must
	// not pass.
	if _, err := Compare(report("A", 100.0), report("B", 100.0)); err == nil {
		t.Fatal("renamed case was accepted")
	}
	if _, err := Compare(report("A", 0.0), report("A", 100.0)); err == nil {
		t.Fatal("non-positive baseline was accepted")
	}
}

func TestCompareRefusesAllocRegression(t *testing.T) {
	base := report("A", 100.0, "B", 100.0)
	curr := report("A", 90.0, "B", 90.0)
	curr.Results[1].AllocsPerPoint = 0.5
	_, err := Compare(base, curr)
	if err == nil {
		t.Fatal("a case allocating above its 0 allocs/point baseline was accepted")
	}
	if !strings.Contains(err.Error(), "B") || !strings.Contains(err.Error(), "allocates") {
		t.Fatalf("alloc error does not name the case: %v", err)
	}
	// Allocating no more than the baseline passes.
	base.Results[1].AllocsPerPoint = 0.5
	if _, err := Compare(base, curr); err != nil {
		t.Fatalf("alloc count equal to the baseline refused: %v", err)
	}
}

func TestReadReportRoundTrip(t *testing.T) {
	var b strings.Builder
	orig := Report{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
		Results: []Result{{Name: "A", Iterations: 10, NsPerPoint: 123.5}}}
	if err := orig.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0] != orig.Results[0] || got.GOARCH != orig.GOARCH {
		t.Fatalf("round trip drifted: %+v", got)
	}
	if _, err := ReadReport(strings.NewReader(`{"results":[]}`)); err == nil {
		t.Fatal("empty report was accepted")
	}
}

func TestWriteDeltasMarksRegressions(t *testing.T) {
	deltas := []Delta{
		{Name: "fine", BaselineNs: 100, CurrentNs: 101, Ratio: 0.01},
		{Name: "slow", BaselineNs: 100, CurrentNs: 150, Ratio: 0.50},
	}
	var b strings.Builder
	if err := WriteDeltas(&b, deltas, 0.10); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "slow") {
		t.Fatalf("worst case not first:\n%s", out)
	}
	if !strings.Contains(lines[0], "REGRESSION") || strings.Contains(lines[1], "REGRESSION") {
		t.Fatalf("regression marking wrong:\n%s", out)
	}
}
