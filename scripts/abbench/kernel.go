package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"

	"fullview/internal/kernelbench"
)

// kernelBenchtime is the -benchtime of every kernel run: each case
// reports the fastest of five batches of at least this long.
const kernelBenchtime = "200ms"

// kernelMaxRegress is the gate: a case fails when the median of its
// paired change/parent ns/point ratios exceeds 1 + kernelMaxRegress.
const kernelMaxRegress = 0.10

// kernelAB is the -workload kernel mode: it builds fvcbench from the
// parent tree and from the checkout, runs `fvcbench -kernelbench` on
// each side for the given number of pairs, and gates on each case's
// median paired ratio. Every change run must also pass
// kernelbench.Compare against the committed BENCH_kernel.json, which
// keeps its hard allocs/point check with one allocation per timed batch
// forgiven (see forgiveOneAlloc). The change's median ns/point against
// that file is printed as a trajectory, not gated.
func kernelAB(ctx context.Context, stdout io.Writer, root, parentDir string, pairs int) error {
	baseline, err := readReport(filepath.Join(root, "BENCH_kernel.json"))
	if err != nil {
		return err
	}
	bin, err := os.MkdirTemp("", "abbench-kernel-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	parent := &kernelSide{name: "parent", bin: filepath.Join(bin, "fvcbench-parent")}
	cur := &kernelSide{name: "change", bin: filepath.Join(bin, "fvcbench-change")}
	for _, s := range []struct {
		dir string
		*kernelSide
	}{{parentDir, parent}, {root, cur}} {
		// -trimpath: identical sources give identical binaries, so code
		// layout does not differ between the two sides' trees.
		build := exec.CommandContext(ctx, "go", "build", "-trimpath", "-o", s.bin, "./cmd/fvcbench")
		build.Dir = s.dir
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s fvcbench: %w", s.name, err)
		}
	}
	err = alternate(pairs, func(change bool) (string, error) {
		s := parent
		if change {
			s = cur
		}
		out := filepath.Join(bin, fmt.Sprintf("%s-%d.json", s.name, len(s.runs)))
		run := exec.CommandContext(ctx, s.bin, "-kernelbench", "-benchtime", kernelBenchtime, "-benchout", out)
		run.Stderr = os.Stderr
		if err := run.Run(); err != nil {
			return "", err
		}
		rep, err := readReport(out)
		if err != nil {
			return "", err
		}
		s.runs = append(s.runs, rep)
		return fmt.Sprintf("%d cases", len(rep.Results)), nil
	})
	if err != nil {
		return err
	}
	regressed, err := kernelReport(stdout, parent.runs, cur.runs)
	if err != nil {
		return err
	}
	deltas, err := trajectory(baseline, cur.runs)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\ntrajectory: change medians vs BENCH_kernel.json (recorded on other hardware; not gated):")
	if err := kernelbench.WriteDeltas(stdout, deltas, math.Inf(1)); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d kernel cases regressed more than %.0f%% against the parent", regressed, 100*kernelMaxRegress)
	}
	return nil
}

// kernelSide is one revision's fvcbench binary and its reports, in pair
// order.
type kernelSide struct {
	name, bin string
	runs      []kernelbench.Report
}

// kernelReport prints each case's parent and change ns/point medians
// [q1, q3], the pairs the change won and the median [q1, q3] of the
// paired change/parent ratios, whose spread is the host's noise on that
// case, and returns how many cases regressed past the gate. Both sides
// must report the same cases in every run.
func kernelReport(w io.Writer, parent, cur []kernelbench.Report) (regressed int, err error) {
	if len(parent) == 0 || len(parent) != len(cur) {
		return 0, errors.New("kernel: need the same number of parent and change runs")
	}
	fmt.Fprintf(w, "%-30s %-32s %-32s %7s  %s\n", "case (ns/point)", "parent median [q1, q3]", "change median [q1, q3]", "won", "paired ratio − 1 [q1, q3]")
	for _, c := range parent[0].Results {
		pv, cv, ratios := make([]float64, len(parent)), make([]float64, len(cur)), make([]float64, len(cur))
		won := 0
		for p := range parent {
			pr, okP := caseNs(parent[p], c.Name)
			cr, okC := caseNs(cur[p], c.Name)
			if !okP || !okC {
				return 0, fmt.Errorf("kernel: case %s missing from pair %d", c.Name, p+1)
			}
			pv[p], cv[p], ratios[p] = pr, cr, cr/pr
			if cr < pr {
				won++
			}
		}
		r := median(ratios) - 1
		q1, q3 := quartiles(ratios)
		mark := ""
		if r > kernelMaxRegress {
			mark = "  REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "%-30s %-32s %-32s %3d/%-3d  %+.1f%% [%+.1f%%, %+.1f%%]%s\n", c.Name, summary(pv), summary(cv), won, len(pv),
			100*r, 100*(q1-1), 100*(q3-1), mark)
	}
	return regressed, nil
}

func caseNs(r kernelbench.Report, name string) (float64, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res.NsPerPoint, res.NsPerPoint > 0
		}
	}
	return 0, false
}

// trajectory runs kernelbench.Compare on every change run, its
// allocations passed through forgiveOneAlloc, and returns each case's
// median ns/point against the baseline.
func trajectory(baseline kernelbench.Report, runs []kernelbench.Report) ([]kernelbench.Delta, error) {
	var perRun [][]kernelbench.Delta
	for p, run := range runs {
		d, err := kernelbench.Compare(baseline, forgiveOneAlloc(run))
		if err != nil {
			return nil, fmt.Errorf("change run %d vs BENCH_kernel.json: %w", p+1, err)
		}
		perRun = append(perRun, d)
	}
	// Compare returns one delta per baseline case in baseline order, so
	// index i is the same case in every run.
	out := perRun[0]
	for i := range out {
		ns := make([]float64, len(perRun))
		for p, d := range perRun {
			ns[p] = d[i].CurrentNs
		}
		out[i].CurrentNs = median(ns)
		out[i].Ratio = out[i].CurrentNs/out[i].BaselineNs - 1
	}
	return out, nil
}

// forgiveOneAlloc returns r with AllocsPerPoint zeroed for every case
// whose reported batch held at most one allocation. runtime.MemStats
// counts every goroutine's mallocs, and a lone one inside a timed batch
// is not the kernel's: an allocating kernel allocates per point or per
// operation, which is at least two in any batch.
func forgiveOneAlloc(r kernelbench.Report) kernelbench.Report {
	r.Results = append([]kernelbench.Result(nil), r.Results...)
	for i := range r.Results {
		res := &r.Results[i]
		points := float64(res.Iterations * max(res.PointsPerOp, 1))
		if points > 0 && res.AllocsPerPoint*points < 2 {
			res.AllocsPerPoint = 0
		}
	}
	return r
}

func readReport(path string) (kernelbench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return kernelbench.Report{}, err
	}
	defer f.Close()
	rep, err := kernelbench.ReadReport(f)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
