// Command fvcbench regenerates the paper's tables and figures and the
// repository's validation experiments (DESIGN.md E1–E18).
//
// Usage:
//
//	fvcbench [flags] <experiment>|all
//	fvcbench -list
//
// Flags:
//
//	-quick        shrink populations and trial counts (seconds, not minutes)
//	-seed N       master RNG seed (default 2012)
//	-trials N     override the per-cell Monte-Carlo trial count
//	-parallel N   cap worker goroutines (default GOMAXPROCS); applies to
//	              trial scheduling and grid sweeps alike, both of which
//	              run through the shared internal/sweep engine
//	-checkpoint D journal completed Monte-Carlo trials to D/<cell>.jsonl
//	              and resume from those journals on restart; a killed run
//	              re-executes only unfinished trials and the final tables
//	              are bit-identical to an uninterrupted run
//	-list         list registered experiments and exit
//
// Kernel benchmark harness (the repository's perf trajectory):
//
//	-kernelbench  run the per-point coverage-kernel micro-benchmarks
//	              instead of an experiment and print benchstat-compatible
//	              lines
//	-benchout F   also write the kernel benchmark results as JSON to F
//	              (ns/point, B/point, allocs/point per benchmark), e.g.
//	              BENCH_kernel.json
//	-benchtime D  minimum measuring time per kernel benchmark (default
//	              1s; "1x" runs a single small batch — the CI smoke mode)
//	-batch M      which kernel execution paths to measure: "all"
//	              (default), "point" (point-at-a-time cases only), or
//	              "batch" (batch-entry cases only) — the A/B
//	              profiling switch
//
// The kernel regression gate is `go run ./scripts/abbench -workload
// kernel`, which runs -kernelbench on a parent revision and on the
// checkout in alternating pairs.
//
// Profiling (usable with any experiment or -kernelbench):
//
//	-cpuprofile F write a CPU profile to F
//	-memprofile F write an allocation profile to F at exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fullview/internal/figures"
	"fullview/internal/kernelbench"
	"fullview/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fvcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fvcbench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "shrink populations and trial counts")
		seed     = fs.Uint64("seed", 0, "master RNG seed (0 = default 2012)")
		trials   = fs.Int("trials", 0, "override per-cell trial count (0 = experiment default)")
		parallel = fs.Int("parallel", 0, "worker goroutines for trials and sweeps (0 = GOMAXPROCS)")
		ckptDir  = fs.String("checkpoint", "", "journal trial progress to this directory and resume from it")
		list     = fs.Bool("list", false, "list experiments and exit")

		kbench     = fs.Bool("kernelbench", false, "run the coverage-kernel micro-benchmarks")
		benchOut   = fs.String("benchout", "", "write kernel benchmark results as JSON to this file")
		benchTime  = fs.String("benchtime", "1s", "minimum measuring time per kernel benchmark (duration, or \"1x\" for a single batch)")
		benchBatch = fs.String("batch", "all", "kernel paths to measure: all, point, or batch (A/B profiling)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file at exit")

		showVersion = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: fvcbench [flags] <experiment>|all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("fvcbench"))
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fvcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fvcbench: memprofile:", err)
			}
		}()
	}

	if *kbench {
		return runKernelBench(stdout, *benchTime, *benchOut, *benchBatch)
	}

	if *list {
		for _, e := range figures.All() {
			fmt.Fprintf(stdout, "%-10s %-4s %s\n", e.Name, e.ID, e.Description)
		}
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name, got %d args", fs.NArg())
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	opts := figures.Options{
		Seed:          *seed,
		Trials:        *trials,
		Parallelism:   *parallel,
		Quick:         *quick,
		CheckpointDir: *ckptDir,
	}
	name := fs.Arg(0)
	if name == "all" {
		return figures.RunAll(stdout, opts)
	}
	e, err := figures.Lookup(name)
	if err != nil {
		return fmt.Errorf("%w (use -list to see experiments)", err)
	}
	return e.Run(stdout, opts)
}

// runKernelBench executes the kernel micro-benchmark suite, prints
// benchstat-compatible lines and optionally writes the JSON report.
func runKernelBench(stdout io.Writer, benchTime, benchOut, batchMode string) error {
	var target time.Duration
	switch benchTime {
	case "1x":
		target = 0 // a single batch per case — the CI smoke mode
	default:
		var err error
		target, err = time.ParseDuration(benchTime)
		if err != nil {
			return fmt.Errorf("benchtime: %w", err)
		}
	}
	var keep func(kernelbench.Case) bool
	switch batchMode {
	case "", "all":
	case "point":
		keep = func(c kernelbench.Case) bool { return !strings.HasSuffix(c.Name, "Batch") }
	case "batch":
		keep = func(c kernelbench.Case) bool { return strings.HasSuffix(c.Name, "Batch") }
	default:
		return fmt.Errorf("batch: unknown mode %q (all, point, or batch)", batchMode)
	}
	report, err := kernelbench.RunFiltered(target, keep)
	if err != nil {
		return err
	}
	if err := report.WriteBenchstat(stdout); err != nil {
		return err
	}
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			return fmt.Errorf("benchout: %w", err)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("benchout: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("benchout: %w", err)
		}
	}
	return nil
}
