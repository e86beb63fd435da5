// Command abbench A/B-runs the service benchmark: it alternates
// `bash bench/run.sh --workload W --seed S` between a parent revision
// and the current checkout, and reports each metric paired.
//
// The parent (default: the merge base of HEAD and main) is exported with
// `git archive` into a temporary directory, where bench/run.sh builds it
// from source just as it builds the checkout. The two sides then run
// one after the other for N pairs, the order flipped on every pair so a
// drifting host does not favour either side. abbench reads bench/ and
// BENCHMARK.json and never edits them.
//
// For each metric of the runs' result lines it prints each side's
// median [q1, q3] (the quartiles of Python's statistics.quantiles, the
// rule the benchmark's spreads use), the number of pairs the change won,
// and the median delta; an end-to-end metric's delta is judged against
// its BENCHMARK.json bound (see verdict: within, BEYOND or unresolved).
// Last come the summed correct, failed and attempted counts of each
// side. The exit status is 1 when a run fails or answers incorrectly,
// or an end-to-end median is worse than its bound; an unresolved
// metric does not change it.
//
// Usage, from anywhere in the repository:
//
//	go run ./scripts/abbench -workload query-bulk -pairs 10
//	go run ./scripts/abbench -workload query-bulk -pairs 2 -trace 1
//
// Set TMPDIR to choose where the parent is exported.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json abbench reads.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics
}

// outcome is the last line bench/run.sh prints.
type outcome struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one revision under test and its runs, in pair order.
type side struct {
	name, dir string
	runs      []outcome
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := mainErr(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("abbench", flag.ContinueOnError)
	parentRev := fs.String("parent", "", "parent revision (default: git merge-base HEAD main)")
	workload := fs.String("workload", "query-bulk", "bench workload")
	seed := fs.Int("seed", 1, "bench seed, the same for every run")
	pairs := fs.Int("pairs", 10, "parent/change pairs to run")
	trace := fs.String("trace", "0", "bench -trace: 0 for end-to-end metrics, 1 for per-layer ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *pairs < 1 || (*trace != "0" && *trace != "1") {
		return fmt.Errorf("usage: abbench [-parent REV] [-workload W] [-seed S] [-pairs N] [-trace 0|1]")
	}

	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	if *parentRev == "" {
		if *parentRev, err = git(ctx, root, "merge-base", "HEAD", "main"); err != nil {
			return err
		}
	}
	rev, err := git(ctx, root, "rev-parse", "--verify", *parentRev+"^{commit}")
	if err != nil {
		return err
	}
	spec, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "abbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := export(ctx, root, rev, tmp); err != nil {
		return err
	}
	head, _ := git(ctx, root, "rev-parse", "--short", "HEAD")
	dirty, _ := git(ctx, root, "status", "--porcelain", "--untracked-files=no")
	change := "checkout " + head
	if dirty != "" {
		change += " + uncommitted changes"
	}
	fmt.Fprintf(stdout, "abbench: %s, seed %d, %d pairs; parent %.12s, change %s\n",
		*workload, *seed, *pairs, rev, change)

	parent := &side{name: "parent", dir: tmp}
	cur := &side{name: "change", dir: root}
	benchArgs := []string{"bench/run.sh", "--workload", *workload, "--seed", fmt.Sprint(*seed), "--trace", *trace}
	for p := 0; p < *pairs; p++ {
		order := []*side{parent, cur}
		if p%2 == 1 {
			order[0], order[1] = cur, parent
		}
		for _, s := range order {
			o, err := runBench(ctx, s.dir, benchArgs)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, s.name, err)
			}
			s.runs = append(s.runs, o)
			fmt.Fprintf(os.Stderr, "pair %d/%d %s: correct=%v failed=%d/%d\n",
				p+1, *pairs, s.name, o.Correct, o.Failed, o.Attempted)
		}
	}
	if !report(stdout, spec, parent, cur) {
		return errors.New("a run failed or an end-to-end metric is worse than its bound")
	}
	return nil
}

// report prints the paired comparison and whether it passes: every run
// correct with no failed operation, and no end-to-end median worse than
// its bound.
func report(w io.Writer, spec benchmarkFile, parent, cur *side) bool {
	ok := true
	fmt.Fprintf(w, "%-40s %-32s %-32s %7s %9s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "delta")
	for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			pv, okP := values(parent.runs, m.Name)
			cv, okC := values(cur.runs, m.Name)
			if !okP || !okC {
				continue
			}
			won := 0
			for i := range pv {
				if better(m, cv[i], pv[i]) {
					won++
				}
			}
			pm, cm := median(pv), median(cv)
			q1, q3 := quartiles(pv)
			delta := (cm - pm) / pm
			line := fmt.Sprintf("%-40s %-32s %-32s %3d/%-3d %+8.1f%%", m.Name+" ("+m.Unit+")",
				summary(pv), summary(cv), won, len(pv), 100*delta)
			if m.Bound > 0 {
				v := verdict(m, pv, cv)
				if v == "BEYOND" {
					ok = false
				}
				line += fmt.Sprintf("  %s bound %.0f%%", v, 100*m.Bound)
			}
			if gap := math.Abs(cm - pm); gap > q3-q1 {
				line += "  gap > parent IQR"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, s := range []*side{parent, cur} {
		correct, failed, attempted := 0, 0, 0
		for _, o := range s.runs {
			if o.Correct {
				correct++
			}
			failed += o.Failed
			attempted += o.Attempted
		}
		fmt.Fprintf(w, "%s: correct %d/%d runs, failed %d, attempted %d\n", s.name, correct, len(s.runs), failed, attempted)
		if correct != len(s.runs) || failed != 0 {
			ok = false
		}
	}
	return ok
}

// verdict judges an end-to-end metric's change median against its
// bound: "BEYOND" when worse than the parent median by more than the
// bound; else "unresolved" when the parent's own IQR, relative to its
// median, is wider than the bound (noise on unchanged code that large
// hides a change that size), unless every change run beats every
// parent run; else "within".
func verdict(m metricSpec, pv, cv []float64) string {
	pm := median(pv)
	worse := (median(cv) - pm) / pm
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "BEYOND"
	}
	q1, q3 := quartiles(pv)
	if (q3-q1)/math.Abs(pm) > m.Bound && !dominates(m, cv, pv) {
		return "unresolved"
	}
	return "within"
}

// dominates reports whether every value of a beats every value of b.
func dominates(m metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(m, x, y) {
				return false
			}
		}
	}
	return true
}

func better(m metricSpec, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// values returns the metric's value in each run, or false when a run
// does not report it (an untraced run carries no per-layer metrics).
func values(runs []outcome, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, o := range runs {
		v, ok := o.Metrics[name]
		if !ok {
			return nil, false
		}
		out[i] = v.Value
	}
	return out, len(out) > 0
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(v, n=4), as bench/stats.go does.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		pos := float64(j) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

func readBenchmark(path string) (benchmarkFile, error) {
	var spec benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runBench runs bench/run.sh in dir and decodes its last output line.
func runBench(ctx context.Context, dir string, args []string) (outcome, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = dir
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		if runErr != nil {
			return o, runErr
		}
		return o, fmt.Errorf("no result line: %w", err)
	}
	// A run whose answers mismatch exits non-zero but still reports;
	// keep it, report() counts it as incorrect.
	if runErr != nil && o.Correct {
		return o, runErr
	}
	return o, nil
}

// export writes the tree of rev into dir.
func export(ctx context.Context, root, rev, dir string) error {
	archive := exec.CommandContext(ctx, "git", "-C", root, "archive", "--format=tar", rev)
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	untar.Stderr = os.Stderr
	archive.Stderr = os.Stderr
	if err := archive.Start(); err != nil {
		return err
	}
	if err := untar.Run(); err != nil {
		archive.Wait()
		return fmt.Errorf("extract %s: %w", rev, err)
	}
	if err := archive.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return nil
}

func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
