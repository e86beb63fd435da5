package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// stat summarises one metric's values over the calibration runs.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (q3 − q1) / median.
	Spread float64 `json:"spread"`
	// SetDiff is (median of the odd runs − median of the even runs) /
	// median of the even runs: how far two interleaved sets disagree.
	SetDiff float64   `json:"setDiff"`
	Values  []float64 `json:"values"`
}

// calibration is what -repeat prints as its last line.
type calibration struct {
	Repeat int    `json:"repeat"`
	Seed   uint64 `json:"seed"`
	// EndToEnd holds the untraced runs' metrics, per workload.
	EndToEnd map[string]map[string]stat `json:"endToEnd"`
	// PerLayer holds one traced run's metrics, per workload.
	PerLayer map[string]map[string]metricValue `json:"perLayer"`
	// SaturationRps is cluster-churn's request mix run closed-loop with 2
	// clients; its open-loop rate must stay at or below half of it.
	SaturationRps float64 `json:"saturationRps,omitempty"`
	OpenLoopRps   float64 `json:"openLoopRps,omitempty"`
}

// calibrate runs each selected workload repeat times untraced, in
// separate processes (this binary, without -repeat), alternating
// workloads run by run with seeds seed, seed+1, …; then one traced run
// of each and, with cluster-churn, one saturation run. It prints per
// workload and metric the median, quartiles, spread and set difference,
// and last the whole summary as JSON (the form committed as
// calibration.json).
func calibrate(args []string, name string, seed uint64, repeat int, stdout io.Writer) error {
	selected := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := stripFlags(args, "repeat", "workload", "seed", "trace", "saturate")
	child := func(w workload, seed uint64, extra ...string) (outcome, error) {
		runArgs := append(append([]string(nil), base...), "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
		res, err := runChild(exe, append(runArgs, extra...))
		if err == nil && (!res.Correct || res.Failed > 0) {
			err = fmt.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
		}
		if err != nil {
			return res, fmt.Errorf("%s %v: %w", w.name, extra, err)
		}
		fmt.Fprintf(stdout, "run %s seed %d %v done\n", w.name, seed, extra)
		return res, nil
	}

	cal := calibration{Repeat: repeat, Seed: seed,
		EndToEnd: map[string]map[string]stat{}, PerLayer: map[string]map[string]metricValue{}}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < repeat; i++ {
		for _, w := range selected {
			res, err := child(w, seed+uint64(i))
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[w.name][m] = append(values[w.name][m], v.Value)
				units[m] = v.Unit
			}
		}
	}
	for _, w := range selected {
		res, err := child(w, seed, "-trace", "1")
		if err != nil {
			return err
		}
		cal.PerLayer[w.name] = res.Metrics
		if w.name == "cluster-churn" {
			res, err := child(w, seed, "-saturate")
			if err != nil {
				return err
			}
			cal.SaturationRps, cal.OpenLoopRps = res.Metrics["ok_rps"].Value, fullSizes.churnRate
		}
	}

	for _, w := range selected {
		cal.EndToEnd[w.name] = map[string]stat{}
		var names []string
		for m := range values[w.name] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			vs := values[w.name][m]
			var even, odd []float64
			for i, v := range vs {
				if i%2 == 0 {
					even = append(even, v)
				} else {
					odd = append(odd, v)
				}
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			st := stat{Unit: units[m], Median: med, Q1: q1, Q3: q3,
				Spread: safeDiv(q3-q1, math.Abs(med)), Values: vs}
			if len(odd) > 0 {
				st.SetDiff = safeDiv(median(odd)-median(even), math.Abs(median(even)))
			}
			cal.EndToEnd[w.name][m] = st
			fmt.Fprintf(stdout, "calib %-14s %-24s median %12s %-5s q1 %12s q3 %12s spread %6.3f setdiff %+6.3f\n",
				w.name, m, formatValue(med), st.Unit, formatValue(q1), formatValue(q3), st.Spread, st.SetDiff)
		}
	}
	if cal.SaturationRps > 0 {
		fmt.Fprintf(stdout, "calib cluster-churn saturation %s req/s closed-loop; the open loop sends %s req/s\n",
			formatValue(cal.SaturationRps), formatValue(cal.OpenLoopRps))
	}
	line, err := json.Marshal(cal)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runChild runs one benchmark process and decodes its result line.
func runChild(exe string, args []string) (outcome, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return outcome{}, fmt.Errorf("%v: %s%s", err, lastLines(out.String(), 8), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return outcome{}, fmt.Errorf("result line: %v", err)
	}
	return res, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n") + "\n"
}

// stripFlags removes the named flags (with their values) from args.
func stripFlags(args []string, names ...string) []string {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		key, _, hasValue := strings.Cut(a, "=")
		if strings.HasPrefix(args[i], "-") && drop[key] {
			if !hasValue && i+1 < len(args) {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}
