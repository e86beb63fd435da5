// Command bench is fvcd's service benchmark. It boots the servers in
// process — one fvcd node, or three replicas behind a cluster router —
// drives them over loopback TCP with seeded, pre-generated requests,
// checks the answers against the library, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, with the
// end-to-end metrics, or with -trace the per-layer ones.
//
//	bash bench/run.sh -workload query-small -seed 1            # one run
//	bash bench/run.sh -workload survey -trace spans.jsonl      # traced run, spans written
//	bash bench/run.sh -workload all -repeat 5                  # calibration
//
// See bench/README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all (with -repeat)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.String("trace", "0", "0 = untraced; 1 = traced, per-layer metrics; any other value = traced, spans also written to that file")
	dir := fs.String("dir", ".bench_build", "scratch directory for the servers' state")
	repeat := fs.Int("repeat", 0, "calibration: run the workload(s) this many times each, alternating, and print each metric's median, quartiles and spread")
	saturate := fs.Bool("saturate", false, "run cluster-churn's request mix closed-loop with 2 clients (its saturation throughput)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if *repeat > 0 {
		return calibrate(args, *name, *seed, *repeat, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	cfg := runConfig{
		w:        w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		warmup:   warmup,
		trace:    *trace != "0",
		dir:      *dir,
		sizes:    fullSizes,
		setups:   15,
		saturate: *saturate,
	}
	if *trace != "0" && *trace != "1" {
		cfg.spansOut = *trace
	}
	res, err := run(cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("answers did not match the oracle")
	}
	return nil
}

// warmup is the untimed load before each window: long enough for the
// caches, the connection pools and the Go heap to settle.
const warmup = 3 * time.Second

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
