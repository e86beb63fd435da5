package experiment

import (
	"context"

	"fullview/internal/stats"
)

// PointOutcome aggregates a point-coverage experiment: random sample
// points diagnosed across fresh network realizations. Its proportions
// estimate the paper's per-point probabilities — 1−P(F_N,P), 1−P(F_S,P)
// under uniform deployment (Eqs. 2, 13) and P_N, P_S under Poisson
// deployment (Theorems 3, 4).
type PointOutcome struct {
	// Necessary / Sufficient / FullView count sample points passing
	// each test, pooled over all trials.
	Necessary  stats.Counter
	Sufficient stats.Counter
	FullView   stats.Counter
	// NecessaryNotFullView counts points that met the necessary
	// condition yet were not full-view covered (Figure 9, left).
	NecessaryNotFullView stats.Counter
	// FullViewNotSufficient counts points full-view covered without
	// meeting the sufficient condition (Figure 9, right: redundancy in
	// the sufficient construction).
	FullViewNotSufficient stats.Counter
	// KCovered counts points covered by at least Config.KTarget cameras;
	// it stays empty when KTarget ≤ 0.
	KCovered stats.Counter
	// CoveringCount summarizes the per-point k-coverage multiplicity.
	CoveringCount stats.Summary
}

// RunPoints executes trials of the point experiment for cfg: each trial
// deploys a fresh network and diagnoses pointsPerTrial uniformly random
// sample points. It is RunPointsThetas for the one-element list
// {cfg.Theta}.
func RunPoints(cfg Config, pointsPerTrial, trials, parallelism int, seed uint64) (PointOutcome, error) {
	return onlyOutcome(RunPointsThetas(cfg, []float64{cfg.Theta}, pointsPerTrial, trials, parallelism, seed))
}

// RunPointsCheckpoint is RunPoints with checkpoint/resume via a journal
// at journalPath; see RunGridCheckpoint for the resume contract. It is
// RunPointsThetasCheckpoint for the one-element list {cfg.Theta}, so it
// journals as "experiment/point-thetas".
func RunPointsCheckpoint(
	ctx context.Context,
	journalPath string,
	cfg Config,
	pointsPerTrial, trials, parallelism int,
	seed uint64,
) (PointOutcome, error) {
	return onlyOutcome(RunPointsThetasCheckpoint(ctx, journalPath, cfg, []float64{cfg.Theta},
		pointsPerTrial, trials, parallelism, seed))
}

// onlyOutcome unwraps the outcome of a one-θ run.
func onlyOutcome(outs []PointOutcome, err error) (PointOutcome, error) {
	if err != nil {
		return PointOutcome{}, err
	}
	return outs[0], nil
}
