package experiment

import (
	"context"
	"fmt"

	"fullview/internal/checkpoint"
	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/numeric"
	"fullview/internal/rng"
	"fullview/internal/stats"
)

// GridOutcome aggregates a grid-coverage experiment: per-trial dense-grid
// sweeps testing whether *every* grid point satisfies each condition (the
// paper's events H_N, H_S, and full-view coverage of the region), plus
// the mean per-trial fractions.
type GridOutcome struct {
	// Trials is the number of completed trials.
	Trials int
	// AllNecessary counts trials where every grid point met the
	// necessary condition (event H_N).
	AllNecessary stats.Counter
	// AllSufficient counts trials where every grid point met the
	// sufficient condition (event H_S).
	AllSufficient stats.Counter
	// AllFullView counts trials where the whole grid was full-view
	// covered.
	AllFullView stats.Counter
	// NecessaryFraction etc. summarize the per-trial fraction of grid
	// points passing each test.
	NecessaryFraction  stats.Summary
	SufficientFraction stats.Summary
	FullViewFraction   stats.Summary
	// MeanCovering summarizes the per-trial mean k-coverage multiplicity.
	MeanCovering stats.Summary
}

// gridPrep validates cfg and resolves the sample grid's side: the
// explicit gridSide when positive, the paper's √(n·ln n) dense grid
// otherwise.
func gridPrep(cfg Config, gridSide int) (Config, int, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, 0, err
	}
	cfg = cfg.withDefaults()
	if gridSide > 0 {
		return cfg, gridSide, nil
	}
	side, err := deploy.DenseGridSide(cfg.N)
	return cfg, side, err
}

// gridTrial returns the per-trial function of the grid experiment:
// deploy a fresh network on the trial's RNG stream and survey the
// side×side grid under ctx.
func gridTrial(ctx context.Context, cfg Config, side, trials, parallelism int) TrialFunc[core.RegionStats] {
	return func(_ int, r *rng.PCG) (core.RegionStats, error) {
		net, err := cfg.deployNetwork(r)
		if err != nil {
			return core.RegionStats{}, err
		}
		checker, err := core.NewChecker(net, cfg.Theta)
		if err != nil {
			return core.RegionStats{}, err
		}
		// Single-trial runs push the parallelism into the grid sweep
		// itself; multi-trial runs keep cores busy at the trial level.
		return checker.SurveyGridContext(ctx, side, 0, side, sweepWorkers(trials, parallelism))
	}
}

// aggregateGrid folds per-trial region statistics into the outcome and
// runs the numeric-health check on the derived summaries.
func aggregateGrid(results []core.RegionStats) (GridOutcome, error) {
	out := GridOutcome{Trials: len(results)}
	necFrac := make([]float64, 0, len(results))
	sufFrac := make([]float64, 0, len(results))
	fvFrac := make([]float64, 0, len(results))
	cover := make([]float64, 0, len(results))
	for _, s := range results {
		out.AllNecessary.Add(s.AllNecessary())
		out.AllSufficient.Add(s.AllSufficient())
		out.AllFullView.Add(s.AllFullView())
		necFrac = append(necFrac, s.NecessaryFraction())
		sufFrac = append(sufFrac, s.SufficientFraction())
		fvFrac = append(fvFrac, s.FullViewFraction())
		cover = append(cover, s.MeanCovering)
	}
	out.NecessaryFraction = stats.Summarize(necFrac)
	out.SufficientFraction = stats.Summarize(sufFrac)
	out.FullViewFraction = stats.Summarize(fvFrac)
	out.MeanCovering = stats.Summarize(cover)
	if err := out.checkFinite(); err != nil {
		return GridOutcome{}, err
	}
	return out, nil
}

// checkFinite guards the outcome's floating-point summaries: a NaN here
// would otherwise propagate silently into every downstream table.
func (o GridOutcome) checkFinite() error {
	ctx := fmt.Sprintf("grid experiment, %d trials", o.Trials)
	return numeric.CheckAll(ctx,
		"NecessaryFraction.Mean", o.NecessaryFraction.Mean,
		"SufficientFraction.Mean", o.SufficientFraction.Mean,
		"FullViewFraction.Mean", o.FullViewFraction.Mean,
		"MeanCovering.Mean", o.MeanCovering.Mean,
		"MeanCovering.Variance", o.MeanCovering.Variance,
	)
}

// RunGrid executes trials of the grid-coverage experiment for cfg: each
// trial deploys a fresh network, sweeps the paper's dense grid
// (√(n·ln n) per side), and records region statistics.
//
// gridSide overrides the dense-grid side when positive — coarser grids
// make large sweeps affordable; the dense grid is the paper-faithful
// default (gridSide ≤ 0).
func RunGrid(cfg Config, gridSide, trials, parallelism int, seed uint64) (GridOutcome, error) {
	cfg, side, err := gridPrep(cfg, gridSide)
	if err != nil {
		return GridOutcome{}, err
	}
	results, err := Run(seed, trials, parallelism, gridTrial(context.Background(), cfg, side, trials, parallelism))
	if err != nil {
		return GridOutcome{}, fmt.Errorf("grid experiment: %w", err)
	}
	return aggregateGrid(results)
}

// RunGridCheckpoint is RunGrid with checkpoint/resume: completed trials
// are journaled at journalPath, a restarted run re-executes only the
// missing trials, and the outcome is bit-identical to an uninterrupted
// RunGrid. The journal header fingerprints (cfg, gridSide, seed,
// trials), so resuming with different parameters fails with
// checkpoint.ErrMismatch.
func RunGridCheckpoint(
	ctx context.Context,
	journalPath string,
	cfg Config,
	gridSide, trials, parallelism int,
	seed uint64,
) (GridOutcome, error) {
	cfg, side, err := gridPrep(cfg, gridSide)
	if err != nil {
		return GridOutcome{}, err
	}
	if trials <= 0 {
		return GridOutcome{}, fmt.Errorf("%w: got %d", ErrBadTrials, trials)
	}
	journal, err := checkpoint.Open(journalPath, checkpoint.Header{
		Kind:   "experiment/grid",
		Seed:   seed,
		Trials: trials,
		Params: fmt.Sprintf("%s grid=%d", cfg.fingerprint(), side),
	})
	if err != nil {
		return GridOutcome{}, err
	}
	defer journal.Close()
	results, err := RunResumable(ctx, journal, seed, trials, parallelism,
		gridTrial(ctx, cfg, side, trials, parallelism))
	if err != nil {
		return GridOutcome{}, fmt.Errorf("grid experiment: %w", err)
	}
	return aggregateGrid(results)
}
