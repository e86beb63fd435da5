package figures

import (
	"context"
	"path/filepath"

	"fullview/internal/deploy"
	"fullview/internal/experiment"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/stats"
)

// deployUniform is shorthand for a uniform deployment on the unit torus.
func deployUniform(profile sensor.Profile, n int, r *rng.PCG) (*sensor.Network, error) {
	return deploy.Uniform(geom.UnitTorus, profile, n, r)
}

// vec is shorthand for geom.V.
func vec(x, y float64) geom.Vec { return geom.V(x, y) }

// wilson returns the 95% Wilson interval for successes/n, swallowing the
// impossible z-validation error (Z95 is a fixed valid constant).
func wilson(successes, n int) (lo, hi float64) {
	lo, hi, _ = stats.WilsonInterval(successes, n, stats.Z95)
	return lo, hi
}

// runGrid routes a grid experiment through the checkpoint layer when
// Options.CheckpointDir is set. cell must uniquely name the experiment
// cell (it becomes the journal file name); results are bit-identical
// either way.
func runGrid(opts Options, cell string, cfg experiment.Config, gridSide, trials int, seed uint64) (experiment.GridOutcome, error) {
	if opts.CheckpointDir == "" {
		return experiment.RunGrid(cfg, gridSide, trials, opts.Parallelism, seed)
	}
	path := filepath.Join(opts.CheckpointDir, cell+".jsonl")
	return experiment.RunGridCheckpoint(context.Background(), path, cfg, gridSide, trials, opts.Parallelism, seed)
}

// runPoints is runPointsThetas for the one-element list {cfg.Theta}.
func runPoints(opts Options, cell string, cfg experiment.Config, pointsPerTrial, trials int, seed uint64) (experiment.PointOutcome, error) {
	outs, err := runPointsThetas(opts, cell, cfg, []float64{cfg.Theta}, pointsPerTrial, trials, seed)
	if err != nil {
		return experiment.PointOutcome{}, err
	}
	return outs[0], nil
}

// runPointsThetas is runGrid's counterpart for point experiments, for a
// whole θ-list at once: one deployment, spatial index, and candidate
// gather per trial serves every θ (core.MultiChecker), and outcome k is
// bit-identical to runPoints with cfg.Theta = thetas[k] under the same
// seed.
func runPointsThetas(opts Options, cell string, cfg experiment.Config, thetas []float64, pointsPerTrial, trials int, seed uint64) ([]experiment.PointOutcome, error) {
	if opts.CheckpointDir == "" {
		return experiment.RunPointsThetas(cfg, thetas, pointsPerTrial, trials, opts.Parallelism, seed)
	}
	path := filepath.Join(opts.CheckpointDir, cell+".jsonl")
	return experiment.RunPointsThetasCheckpoint(context.Background(), path, cfg, thetas, pointsPerTrial, trials, opts.Parallelism, seed)
}
