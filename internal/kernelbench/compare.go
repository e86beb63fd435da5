package kernelbench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReadReport parses a JSON report previously written by WriteJSON
// (e.g. the committed BENCH_kernel.json).
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("benchmark report: %w", err)
	}
	if len(rep.Results) == 0 {
		return Report{}, fmt.Errorf("benchmark report has no results")
	}
	return rep, nil
}

// Delta is one case's baseline-vs-current comparison. Ratio is
// current/baseline − 1, so +0.12 reads "12% slower than baseline".
type Delta struct {
	Name       string
	BaselineNs float64
	CurrentNs  float64
	Ratio      float64
}

// Regressed reports whether the case slowed down by more than
// maxRegress (a fraction: 0.10 = 10%).
func (d Delta) Regressed(maxRegress float64) bool {
	return d.Ratio > maxRegress
}

// Compare matches current results against a baseline by case name and
// returns one Delta per baseline case, in baseline order. Any mismatch
// in case coverage is an error, in both directions: a baseline case
// missing from the current run means a benchmark was silently dropped
// (which must not read as "no regression"), and a current case missing
// from the baseline means the suite grew (or a case was renamed)
// without re-baselining — the new case would run ungated forever. A
// case allocating more per point than its baseline is an error too: the
// committed baseline pins the kernel at 0 allocs/point, and an
// allocation is a regression no ns/point tolerance may absorb.
func Compare(baseline, current Report) ([]Delta, error) {
	inBaseline := make(map[string]bool, len(baseline.Results))
	for _, b := range baseline.Results {
		inBaseline[b.Name] = true
	}
	byName := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		if !inBaseline[r.Name] {
			return nil, fmt.Errorf("case %s is in the current run but missing from the baseline — re-baseline with `fvcbench -kernelbench -benchout <baseline>`", r.Name)
		}
		byName[r.Name] = r
	}
	deltas := make([]Delta, 0, len(baseline.Results))
	for _, b := range baseline.Results {
		c, ok := byName[b.Name]
		if !ok {
			return nil, fmt.Errorf("case %s is in the baseline but missing from the current run", b.Name)
		}
		if !(b.NsPerPoint > 0) {
			return nil, fmt.Errorf("case %s has a non-positive baseline (%g ns/point)", b.Name, b.NsPerPoint)
		}
		if c.AllocsPerPoint > b.AllocsPerPoint {
			return nil, fmt.Errorf("case %s allocates %g per point, baseline %g", b.Name, c.AllocsPerPoint, b.AllocsPerPoint)
		}
		deltas = append(deltas, Delta{
			Name:       b.Name,
			BaselineNs: b.NsPerPoint,
			CurrentNs:  c.NsPerPoint,
			Ratio:      c.NsPerPoint/b.NsPerPoint - 1,
		})
	}
	return deltas, nil
}

// WriteDeltas renders a comparison table, worst ratio first, marking
// every case beyond maxRegress.
func WriteDeltas(w io.Writer, deltas []Delta, maxRegress float64) error {
	sorted := make([]Delta, len(deltas))
	copy(sorted, deltas)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ratio > sorted[j].Ratio })
	for _, d := range sorted {
		mark := ""
		if d.Regressed(maxRegress) {
			mark = "  REGRESSION"
		}
		if _, err := fmt.Fprintf(w, "%-28s %10.1f ns/point  baseline %10.1f  %+6.1f%%%s\n",
			d.Name, d.CurrentNs, d.BaselineNs, 100*d.Ratio, mark); err != nil {
			return err
		}
	}
	return nil
}
