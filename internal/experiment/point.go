package experiment

import "fullview/internal/stats"

// PointOutcome aggregates a point-coverage experiment: random sample
// points diagnosed across fresh network realizations. Its proportions
// estimate the paper's per-point probabilities — 1−P(F_N,P), 1−P(F_S,P)
// under uniform deployment (Eqs. 2, 13) and P_N, P_S under Poisson
// deployment (Theorems 3, 4). RunPointsThetas returns one per θ.
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
