// Command fvcsim deploys one camera network and reports its full-view
// coverage: region statistics over the paper's dense grid, the analytic
// expectations for comparison, optional barrier coverage, and an
// optional SVG coverage map.
//
// Usage:
//
//	fvcsim -n 1000 -theta 0.25 -r 0.15 -phi 0.5 -deploy uniform -seed 1
//	fvcsim -n 2000 -theta 0.25 -barrier 0.5 -svg map.svg
//	fvcsim -n 1000 -groups "0.3:0.2:0.33,0.7:0.1:0.5"
//	fvcsim -n 100000 -parallel 8
//
// Coverage sweeps run through the shared parallel sweep engine
// (-parallel workers, GOMAXPROCS by default); the reported statistics
// are bit-identical at any worker count.
//
// Angles are fractions of π (-theta 0.25 ⇒ θ = π/4; -phi 0.5 ⇒ φ = π/2).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"fullview/internal/analytic"
	"fullview/internal/barrier"
	"fullview/internal/checkpoint"
	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/experiment"
	"fullview/internal/geom"
	"fullview/internal/jsonlog"
	"fullview/internal/report"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/version"
	"fullview/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fvcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fvcsim", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 1000, "number of cameras (or Poisson density)")
		thetaPi    = fs.Float64("theta", 0.25, "effective angle θ as a fraction of π")
		radius     = fs.Float64("r", 0.15, "sensing radius")
		phiPi      = fs.Float64("phi", 0.5, "aperture φ as a fraction of π")
		groups     = fs.String("groups", "", `heterogeneous profile "frac:r:phiPi,..." (overrides -r/-phi)`)
		deployment = fs.String("deploy", "uniform", "deployment scheme: uniform or poisson")
		seed       = fs.Uint64("seed", 2012, "RNG seed")
		gridSide   = fs.Int("grid", 0, "grid side override (0 = paper dense grid)")
		barrierY   = fs.Float64("barrier", -1, "also survey a horizontal barrier at this height (negative = off)")
		svgPath    = fs.String("svg", "", "write an SVG coverage map to this file")
		parallel   = fs.Int("parallel", 0, "worker goroutines for the coverage sweeps (0 = GOMAXPROCS)")
		ckptPath   = fs.String("checkpoint", "", "journal grid-survey progress to this file and resume from it")

		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(w, version.String("fvcsim"))
		return nil
	}
	if *thetaPi <= 0 || *thetaPi > 1 {
		return errors.New("-theta must be in (0, 1] (fraction of π)")
	}
	theta := *thetaPi * math.Pi

	var (
		profile sensor.Profile
		err     error
	)
	if *groups != "" {
		profile, err = sensor.ParseProfile(*groups)
	} else {
		profile, err = sensor.Homogeneous(*radius, *phiPi*math.Pi)
	}
	if err != nil {
		return err
	}
	r := rng.New(*seed, 0)
	var net *sensor.Network
	switch *deployment {
	case "uniform":
		net, err = deploy.Uniform(geom.UnitTorus, profile, *n, r)
	case "poisson":
		net, err = deploy.Poisson(geom.UnitTorus, profile, float64(*n), r)
	default:
		return fmt.Errorf("unknown deployment %q (want uniform or poisson)", *deployment)
	}
	if err != nil {
		return err
	}

	checker, err := core.NewChecker(net, theta)
	if err != nil {
		return err
	}
	side := *gridSide
	if side <= 0 {
		side, err = deploy.DenseGridSide(*n)
		if err != nil {
			return err
		}
	}
	points, err := deploy.GridPoints(geom.UnitTorus, side)
	if err != nil {
		return err
	}
	// The grid sweep dominates the run time; spread it over the cores.
	// Results are bit-identical to the sequential sweep at any -parallel,
	// and -checkpoint journals the sweep band by band so a killed run
	// resumes where it left off with identical statistics.
	var stats core.RegionStats
	if *ckptPath != "" {
		stats, err = surveyCheckpoint(*ckptPath, checker, points, side,
			*deployment, *n, theta, profile, *seed, *parallel)
		if err != nil {
			return err
		}
	} else {
		stats = checker.SurveyRegionParallel(points, *parallel)
	}

	table := report.NewTable(
		fmt.Sprintf("fvcsim — %s deployment, %d cameras, θ = %.4gπ, grid %d×%d",
			*deployment, net.Len(), *thetaPi, side, side),
		"quantity", "value",
	)
	nec, err := analytic.CSANecessary(*n, theta)
	if err != nil {
		return err
	}
	suf, err := analytic.CSASufficient(*n, theta)
	if err != nil {
		return err
	}
	rows := [][2]string{
		{"weighted sensing area s_c", report.F(profile.WeightedSensingArea())},
		{"necessary CSA s_Nc(n)", report.F(nec)},
		{"sufficient CSA s_Sc(n)", report.F(suf)},
		{"grid points", report.I(stats.Points)},
		{"full-view covered fraction", report.F4(stats.FullViewFraction())},
		{"necessary-condition fraction", report.F4(stats.NecessaryFraction())},
		{"sufficient-condition fraction", report.F4(stats.SufficientFraction())},
		{"whole grid full-view covered", fmt.Sprintf("%v", stats.AllFullView())},
		{"min / mean covering count", fmt.Sprintf("%d / %s", stats.MinCovering, report.F4(stats.MeanCovering))},
		{"expected covering count (n*s_c)", report.F4(analytic.ExpectedCoverageCount(profile, *n))},
	}
	for _, row := range rows {
		if err := table.AddRow(row[0], row[1]); err != nil {
			return err
		}
	}
	if _, err := table.WriteTo(w); err != nil {
		return err
	}

	if !stats.AllFullView() {
		if p, dir, found := checker.FirstFullViewGap(points); found {
			if _, err := fmt.Fprintf(w, "\nfirst uncovered grid point: %v (unsafe facing direction %.4f rad)\n", p, dir); err != nil {
				return err
			}
		}
	}

	if *barrierY >= 0 {
		if *barrierY > 1 {
			return errors.New("-barrier must be within [0, 1]")
		}
		bstats, err := barrier.SurveyContext(context.Background(), checker, barrier.Horizontal(*barrierY), 0.01, *parallel)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w,
			"\nbarrier y=%.3f: covered=%v full-view fraction=%.4f weak fraction=%.4f\n",
			*barrierY, bstats.Covered, bstats.FullViewFraction(), bstats.WeakFraction()); err != nil {
			return err
		}
	}

	if *svgPath != "" {
		scene, err := viz.NewScene(net, theta, viz.Options{
			HeatmapSide: 40,
			ShowCameras: net.Len() <= 2000, // sector outlines drown past that
			MarkHoles:   true,
		})
		if err != nil {
			return err
		}
		if *barrierY >= 0 {
			scene.AddBarrier([]geom.Vec{geom.V(0, *barrierY), geom.V(1, *barrierY)})
		}
		if err := writeSVGAtomic(*svgPath, scene); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "\ncoverage map written to %s\n", *svgPath); err != nil {
			return err
		}
	}
	return nil
}

// writeSVGAtomic renders the scene and replaces path with it through
// jsonlog.WriteAtomic, so a crash or write error never leaves a
// truncated or empty SVG under the requested name.
func writeSVGAtomic(path string, scene *viz.Scene) error {
	var buf bytes.Buffer
	if _, err := scene.WriteTo(&buf); err != nil {
		return fmt.Errorf("render svg: %w", err)
	}
	if err := jsonlog.WriteAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("write svg: %w", err)
	}
	return nil
}

// surveyCheckpoint surveys the grid as a resumable journaled run: the
// grid's rows are the journal's trials, each row surveyed with a
// per-goroutine checker clone and recorded durably on completion. The
// merged statistics are bit-identical to SurveyRegionParallel — every
// RegionStats field is an exact integer sum or minimum (MeanCovering is
// re-derived from the carried integer total), so merging restored and
// freshly-computed rows in row order reproduces the single-sweep
// result.
func surveyCheckpoint(
	path string,
	checker *core.Checker,
	points []geom.Vec,
	side int,
	deployment string,
	n int,
	theta float64,
	profile sensor.Profile,
	seed uint64,
	parallel int,
) (core.RegionStats, error) {
	header := checkpoint.Header{
		Kind:   "fvcsim/survey",
		Seed:   seed,
		Trials: side,
		Params: fmt.Sprintf("deploy=%s n=%d theta=%.17g profile=%s grid=%d",
			deployment, n, theta, sensor.FormatProfile(profile), side),
	}
	journal, err := checkpoint.Open(path, header)
	if err != nil {
		return core.RegionStats{}, err
	}
	rows, err := experiment.RunResumable(context.Background(), journal, seed, side, parallel,
		func(row int, _ *rng.PCG) (core.RegionStats, error) {
			return checker.Clone().SurveyRegion(points[row*side : (row+1)*side]), nil
		})
	if err != nil {
		return core.RegionStats{}, fmt.Errorf("checkpointed survey: %w", err)
	}
	var stats core.RegionStats
	for _, row := range rows {
		stats = stats.Merge(row)
	}
	if err := journal.Close(); err != nil {
		return core.RegionStats{}, err
	}
	return stats, nil
}
