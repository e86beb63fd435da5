// Package kernelbench defines the micro-benchmarks of the per-point
// coverage kernel — the gather → max-gap → sector-occupancy pipeline
// every experiment executes hundreds of thousands of times — in a form
// runnable both as ordinary `go test -bench` benchmarks (see the
// repository-root kernel_bench_test.go) and as a standalone harness
// (`fvcbench -kernelbench`) that emits machine-readable results, so the
// repository carries a perf trajectory across PRs (BENCH_baseline.json,
// BENCH_kernel.json).
//
// Point-at-a-time cases evaluate exactly one sample point per
// iteration, so ns/op, B/op, and allocs/op read directly as ns/point,
// B/point, allocs/point. Batch cases (names ending in "Batch") evaluate
// Points samples per iteration through the cell-sorted batch kernel;
// the harness divides by iterations × Points, so every reported figure
// is still per point and batch cases compare directly against their
// point-at-a-time twins.
package kernelbench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/sweep"
)

// pointPool is the number of pre-drawn sample points a case cycles
// through; a power of two so the per-iteration index is a mask, not a
// division.
const pointPool = 4096

// sink defeats dead-code elimination of benchmark kernels.
var sink int

// Thetas is the effective-angle list of the fused multi-θ case,
// mirroring a theorem-sweep θ-loop.
var Thetas = []float64{0.15 * math.Pi, 0.25 * math.Pi, math.Pi / 3, 0.5 * math.Pi}

// Case is one kernel micro-benchmark.
type Case struct {
	// Name is the stable benchmark identifier ("FullViewHomog1000", …).
	// The `go test` benchmark is named Benchmark<Name>. Batch-kernel
	// cases end in "Batch" — the convention `fvcbench -batch` filters
	// on.
	Name string
	// Points is the number of sample points one fn(i) call evaluates
	// (0 and 1 both mean one). Per-point figures divide by it.
	Points int
	// Setup builds the fixture (network, checker, point pool) and
	// returns the per-iteration kernel; fn(i) evaluates the i-th point
	// (or point batch) of the cycled pool. Setup cost is excluded from
	// measurement.
	Setup func() (fn func(i int), err error)
}

// PointsPerOp returns the number of sample points one iteration of the
// case evaluates (at least 1).
func (c Case) PointsPerOp() int {
	if c.Points > 1 {
		return c.Points
	}
	return 1
}

// samplePoints draws the shared pool of uniform sample points.
func samplePoints(seed uint64) []geom.Vec {
	r := rng.New(seed, 17)
	pts := make([]geom.Vec, pointPool)
	for i := range pts {
		pts[i] = geom.V(r.Float64(), r.Float64())
	}
	return pts
}

// homogNetwork is the homogeneous fixture: n cameras, r = 0.15, φ = π/2
// (the bench_test.go micro-benchmark configuration).
func homogNetwork(n int) (*sensor.Network, error) {
	profile, err := sensor.Homogeneous(0.15, math.Pi/2)
	if err != nil {
		return nil, err
	}
	return deploy.Uniform(geom.UnitTorus, profile, n, rng.New(1, 0))
}

// hetNetwork is the heterogeneous fixture: three groups whose sensing
// radii span 100× (0.002 … 0.2) — the paper's heterogeneity regime where
// a single global max-radius query reach over-scans badly.
func hetNetwork(n int) (*sensor.Network, error) {
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.002, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.02, Aperture: math.Pi / 3},
		sensor.GroupSpec{Fraction: 0.2, Radius: 0.2, Aperture: math.Pi / 4},
	)
	if err != nil {
		return nil, err
	}
	return deploy.Uniform(geom.UnitTorus, profile, n, rng.New(2, 0))
}

// Cases returns the kernel micro-benchmark suite.
func Cases() []Case {
	return []Case{
		{
			// The exact full-view test (Definition 1) on a homogeneous
			// 1000-camera network.
			Name: "FullViewHomog1000",
			Setup: func() (func(int), error) {
				net, err := homogNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(3)
				return func(i int) {
					if checker.FullViewCovered(pts[i&(pointPool-1)]) {
						sink++
					}
				}, nil
			},
		},
		{
			// The same test on the 100×-radius-span heterogeneous
			// network, where query reach per radius group matters.
			Name: "FullViewHet1000",
			Setup: func() (func(int), error) {
				net, err := hetNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(5)
				return func(i int) {
					if checker.FullViewCovered(pts[i&(pointPool-1)]) {
						sink++
					}
				}, nil
			},
		},
		{
			// The fused per-point diagnosis: gather once, max gap +
			// 2θ-sector + θ-sector occupancy + covering count.
			Name: "FullViewReport1000",
			Setup: func() (func(int), error) {
				net, err := homogNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(7)
				return func(i int) {
					rep := checker.Report(pts[i&(pointPool-1)])
					sink += rep.NumCovering
				}, nil
			},
		},
		{
			// A θ-sweep over one deployment: FullView / Necessary /
			// Sufficient for every θ in Thetas at each point.
			Name:  "FullViewMultiTheta1000",
			Setup: multiThetaSetup,
		},
		{
			// The geometric conditions alone (anchored 2θ- and θ-sector
			// occupancy, paper §III–IV).
			Name: "SectorOccupancy1000",
			Setup: func() (func(int), error) {
				net, err := homogNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(11)
				return func(i int) {
					p := pts[i&(pointPool-1)]
					if checker.MeetsNecessary(p) {
						sink++
					}
					if checker.MeetsSufficient(p) {
						sink++
					}
				}, nil
			},
		},
		{
			// The batch twin of FullViewMultiTheta1000: the same network,
			// θ-list, and point pool, evaluated sweep.BatchSize points per
			// iteration through MultiChecker.EvaluateBatch (cell-sorted
			// gather, candidate reuse, hoisted 2θ thresholds). Verdicts
			// are bit-identical; only the grouping differs.
			Name:   "FullViewMultiTheta1000Batch",
			Points: sweep.BatchSize,
			Setup:  multiThetaBatchSetup,
		},
		{
			// The batch twin of SectorOccupancy1000 on the same network
			// and point pool. The point case pays two gathers per point
			// (MeetsNecessary + MeetsSufficient); the batch kernel
			// (Checker.SurveyBatch) answers both conditions — plus the
			// max-gap verdict the point case skips — from one cell-sorted
			// gather per batch.
			Name:   "SectorOccupancy1000Batch",
			Points: sweep.BatchSize,
			Setup: func() (func(int), error) {
				net, err := homogNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(11)
				return func(i int) {
					lo := (i * sweep.BatchSize) & (pointPool - 1)
					stats := checker.SurveyBatch(pts[lo : lo+sweep.BatchSize])
					sink += stats.Necessary + stats.Sufficient
				}, nil
			},
		},
		{
			// The full survey kernel (the /survey and job-band hot path)
			// on the 100×-radius-span heterogeneous network, batch-at-a-
			// time: per-tier cell sort + candidate-major scan where tier
			// reach per radius group matters most.
			Name:   "SurveyHet1000Batch",
			Points: sweep.BatchSize,
			Setup: func() (func(int), error) {
				net, err := hetNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(5)
				return func(i int) {
					lo := (i * sweep.BatchSize) & (pointPool - 1)
					stats := checker.SurveyBatch(pts[lo : lo+sweep.BatchSize])
					sink += stats.FullView
				}, nil
			},
		},
		{
			// k-coverage multiplicity on the heterogeneous network.
			Name: "CountCoveringHet1000",
			Setup: func() (func(int), error) {
				net, err := hetNetwork(1000)
				if err != nil {
					return nil, err
				}
				checker, err := core.NewChecker(net, math.Pi/4)
				if err != nil {
					return nil, err
				}
				pts := samplePoints(13)
				return func(i int) {
					sink += checker.CoverageCount(pts[i&(pointPool-1)])
				}, nil
			},
		},
	}
}

// Result is the measurement of one case. All figures are per point:
// point-at-a-time cases evaluate one point per iteration, batch cases
// divide by iterations × PointsPerOp.
type Result struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	PointsPerOp    int     `json:"pointsPerOp,omitempty"`
	NsPerPoint     float64 `json:"nsPerPoint"`
	BytesPerPoint  float64 `json:"bytesPerPoint"`
	AllocsPerPoint float64 `json:"allocsPerPoint"`
}

// Report is the serialized form of a full harness run.
type Report struct {
	GoVersion string   `json:"goVersion"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// RunFiltered measures the cases keep accepts (nil keeps every case;
// a filter is the engine behind `fvcbench -batch point|batch` A/B
// profiling). Each case warms up once, then runs batches of doubling
// size until the measured batch lasts at least benchtime (one single
// batch when benchtime ≤ 0 — the -benchtime=1x smoke mode). Filtered
// reports must not be compared against the full committed baseline:
// Compare treats the missing cases as a gate failure.
func RunFiltered(benchtime time.Duration, keep func(Case) bool) (Report, error) {
	report := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, c := range Cases() {
		if keep != nil && !keep(c) {
			continue
		}
		res, err := measure(c, benchtime)
		if err != nil {
			return Report{}, fmt.Errorf("kernelbench %s: %w", c.Name, err)
		}
		report.Results = append(report.Results, res)
	}
	if len(report.Results) == 0 {
		return Report{}, fmt.Errorf("kernelbench: the case filter kept no cases")
	}
	return report, nil
}

// bestOf is how many equal-size batches a full measurement runs; the
// fastest one is reported. Shared machines inject multi-10% scheduling
// noise between batches, and the minimum over a few batches is the
// standard estimator of the uncontended cost — without it a perf gate
// on these numbers would be a coin flip.
const bestOf = 5

// measure times one case with the doubling schedule, then reports the
// fastest of bestOf batches at the final size. Per-point figures divide
// by iterations × PointsPerOp, so batch and point cases read on the
// same scale.
func measure(c Case, benchtime time.Duration) (Result, error) {
	fn, err := c.Setup()
	if err != nil {
		return Result{}, err
	}
	// Warm-up: one pass over the whole point pool, so every scratch
	// buffer has grown to its high-water mark before a batch counts
	// allocations. One call would leave a buffer to grow on the first
	// point with more covering cameras than point 0, and that one
	// allocation fails the 0 allocs/point gate whenever it lands in the
	// reported batch.
	for i := 0; i < pointPool/c.PointsPerOp(); i++ {
		fn(i)
	}
	perOp := float64(c.PointsPerOp())

	n := 64
	for {
		iters, elapsed, mallocs, bytes := timeBatch(fn, n)
		if elapsed >= benchtime || n >= 1<<28 {
			points := float64(iters) * perOp
			res := Result{
				Name:           c.Name,
				Iterations:     iters,
				PointsPerOp:    c.Points,
				NsPerPoint:     float64(elapsed.Nanoseconds()) / points,
				BytesPerPoint:  float64(bytes) / points,
				AllocsPerPoint: float64(mallocs) / points,
			}
			// The smoke mode (benchtime ≤ 0) stays single-batch; a full
			// run re-times the chosen size and keeps the fastest batch.
			for extra := 1; benchtime > 0 && extra < bestOf; extra++ {
				iters, elapsed, mallocs, bytes = timeBatch(fn, n)
				points = float64(iters) * perOp
				if ns := float64(elapsed.Nanoseconds()) / points; ns < res.NsPerPoint {
					res.NsPerPoint = ns
					res.Iterations = iters
					res.BytesPerPoint = float64(bytes) / points
					res.AllocsPerPoint = float64(mallocs) / points
				}
			}
			return res, nil
		}
		// Grow toward the target the way testing.B does: aim past
		// benchtime, at most 100× at a step.
		next := n * 100
		if elapsed > 0 {
			if predicted := int(float64(n) * 1.2 * float64(benchtime) / float64(elapsed)); predicted < next {
				next = predicted
			}
		}
		if next <= n {
			next = n * 2
		}
		n = next
	}
}

// timeBatch runs fn n times, returning wall time and the exact malloc
// deltas from runtime.MemStats.
func timeBatch(fn func(int), n int) (iters int, elapsed time.Duration, mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return n, elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteBenchstat writes the report in benchstat-compatible text form
// ("BenchmarkX   N   ns/op   B/op   allocs/op").
func (r Report) WriteBenchstat(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "goos: %s\ngoarch: %s\n", r.GOOS, r.GOARCH); err != nil {
		return err
	}
	for _, res := range r.Results {
		if _, err := fmt.Fprintf(w, "Benchmark%s\t%d\t%.1f ns/op\t%.0f B/op\t%.0f allocs/op\n",
			res.Name, res.Iterations, res.NsPerPoint, res.BytesPerPoint, res.AllocsPerPoint); err != nil {
			return err
		}
	}
	return nil
}
