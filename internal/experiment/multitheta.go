package experiment

import (
	"context"
	"fmt"
	"strings"

	"fullview/internal/checkpoint"
	"fullview/internal/core"
	"fullview/internal/geom"
	"fullview/internal/numeric"
	"fullview/internal/rng"
	"fullview/internal/stats"
	"fullview/internal/sweep"
)

// ErrBadThetas reports an empty effective-angle list.
var ErrBadThetas = fmt.Errorf("experiment: thetas list must be non-empty")

// pointThetaCounts is one θ's share of a fused multi-θ trial. The
// θ-independent quantities (covering counts, k-coverage) live on the
// trial itself.
type pointThetaCounts struct {
	Necessary            int `json:"nec"`
	Sufficient           int `json:"suf"`
	FullView             int `json:"fv"`
	NecessaryNotFullView int `json:"necNotFv"`
	FullViewNotSuf       int `json:"fvNotSuf"`
}

func (c *pointThetaCounts) add(other pointThetaCounts) {
	c.Necessary += other.Necessary
	c.Sufficient += other.Sufficient
	c.FullView += other.FullView
	c.NecessaryNotFullView += other.NecessaryNotFullView
	c.FullViewNotSuf += other.FullViewNotSuf
}

// pointsThetasTrial is one trial's aggregate of the fused experiment:
// per-θ condition counts plus the shared (θ-independent) covering
// series. All fields round-trip through encoding/json exactly, so
// completed trials can be journaled by the checkpoint layer.
type pointsThetasTrial struct {
	PerTheta []pointThetaCounts `json:"perTheta"`
	KCovered int                `json:"kCov"`
	Covering []float64          `json:"covering"`
}

// pointsThetasTrialFunc returns the per-trial function of the fused
// experiment: deploy one network, draw the sample points, and diagnose
// every θ of the list from a single candidate gather per point
// (core.MultiChecker).
func pointsThetasTrialFunc(cfg Config, thetas []float64, pointsPerTrial, trials, parallelism int) TrialFunc[pointsThetasTrial] {
	return func(_ int, r *rng.PCG) (pointsThetasTrial, error) {
		net, err := cfg.deployNetwork(r)
		if err != nil {
			return pointsThetasTrial{}, err
		}
		checker, err := core.NewMultiChecker(net, thetas)
		if err != nil {
			return pointsThetasTrial{}, err
		}
		// All sample points are drawn up front (diagnosis consumes no
		// randomness), so the trial's random sequence — and therefore its
		// deployment and points — does not depend on the θ-list: outcome
		// k is bit-identical to RunPoints at θ_k.
		side := cfg.Torus.Side()
		points := make([]geom.Vec, pointsPerTrial)
		for i := range points {
			points[i] = geom.V(r.Float64()*side, r.Float64()*side)
		}
		// The batch kernel (EvaluateBatch) reports points in batch order
		// with verdicts bit-identical to Evaluate, and chunk-ordered
		// merging keeps the covering series in point order, so every
		// trial aggregate is independent of the worker count.
		return sweep.RunBatch(context.Background(), points, sweepWorkers(trials, parallelism),
			func() (*core.MultiChecker, error) { return checker.Clone(), nil },
			func(worker *core.MultiChecker, acc pointsThetasTrial, _ int, pts []geom.Vec) pointsThetasTrial {
				if acc.PerTheta == nil {
					acc.PerTheta = make([]pointThetaCounts, len(thetas))
				}
				worker.EvaluateBatch(pts, func(_ int, rep core.MultiReport) {
					for k, v := range rep.PerTheta {
						t := &acc.PerTheta[k]
						if v.Necessary {
							t.Necessary++
							if !v.FullView {
								t.NecessaryNotFullView++
							}
						}
						if v.FullView {
							t.FullView++
							if !v.Sufficient {
								t.FullViewNotSuf++
							}
						}
						if v.Sufficient {
							t.Sufficient++
						}
					}
					if cfg.KTarget > 0 && rep.NumCovering >= cfg.KTarget {
						acc.KCovered++
					}
					acc.Covering = append(acc.Covering, float64(rep.NumCovering))
				})
				return acc
			},
			func(dst, src pointsThetasTrial) pointsThetasTrial {
				if dst.PerTheta == nil {
					dst.PerTheta = make([]pointThetaCounts, len(thetas))
				}
				for k := range src.PerTheta {
					dst.PerTheta[k].add(src.PerTheta[k])
				}
				dst.KCovered += src.KCovered
				dst.Covering = append(dst.Covering, src.Covering...)
				return dst
			})
	}
}

// aggregatePointsThetas pools per-trial counts into one PointOutcome per
// θ. The covering-count summary and k-coverage counter are θ-independent
// and shared across the outcomes.
func aggregatePointsThetas(cfg Config, thetas []float64, results []pointsThetasTrial, pointsPerTrial int) ([]PointOutcome, error) {
	var covering []float64
	for _, tr := range results {
		covering = append(covering, tr.Covering...)
	}
	summary := stats.Summarize(covering)
	ctx := fmt.Sprintf("point experiment, %d trials × %d points × %d thetas",
		len(results), pointsPerTrial, len(thetas))
	if err := numeric.CheckAll(ctx,
		"CoveringCount.Mean", summary.Mean,
		"CoveringCount.Variance", summary.Variance,
	); err != nil {
		return nil, err
	}
	outs := make([]PointOutcome, len(thetas))
	for k := range thetas {
		out := &outs[k]
		for _, tr := range results {
			if k >= len(tr.PerTheta) {
				return nil, fmt.Errorf("experiment: trial journal has %d thetas, want %d (stale checkpoint?)",
					len(tr.PerTheta), len(thetas))
			}
			c := tr.PerTheta[k]
			out.Necessary.AddN(c.Necessary, pointsPerTrial)
			out.Sufficient.AddN(c.Sufficient, pointsPerTrial)
			out.FullView.AddN(c.FullView, pointsPerTrial)
			out.NecessaryNotFullView.AddN(c.NecessaryNotFullView, pointsPerTrial)
			out.FullViewNotSufficient.AddN(c.FullViewNotSuf, pointsPerTrial)
			if cfg.KTarget > 0 {
				out.KCovered.AddN(tr.KCovered, pointsPerTrial)
			}
		}
		out.CoveringCount = summary
	}
	return outs, nil
}

// validatePoints is the shared argument validation of the point
// runners: every θ of the list must make a valid Config. cfg.Theta is
// ignored; the returned Config carries thetas[0], which the checkpoint
// fingerprint records.
func validatePoints(cfg Config, thetas []float64, pointsPerTrial int) (Config, error) {
	if len(thetas) == 0 {
		return cfg, ErrBadThetas
	}
	for _, theta := range thetas {
		cfg.Theta = theta
		if err := cfg.Validate(); err != nil {
			return cfg, err
		}
	}
	if pointsPerTrial <= 0 {
		return cfg, fmt.Errorf("%w: got %d", ErrBadPoints, pointsPerTrial)
	}
	cfg.Theta = thetas[0]
	return cfg.withDefaults(), nil
}

// formatThetas renders the θ-list for checkpoint fingerprints.
func formatThetas(thetas []float64) string {
	parts := make([]string, len(thetas))
	for i, theta := range thetas {
		parts[i] = fmt.Sprintf("%.17g", theta)
	}
	return strings.Join(parts, ",")
}

// RunPointsThetas executes the point experiment for a whole list of
// effective angles at once: each trial deploys a single network, draws a
// single set of sample points, and diagnoses every θ from one candidate
// gather per point. Outcome k is bit-identical to what RunPoints would
// return with cfg.Theta = thetas[k] (the trial RNG sequence does not
// depend on θ), at a fraction of the deployment and gather cost.
// cfg.Theta is ignored.
func RunPointsThetas(cfg Config, thetas []float64, pointsPerTrial, trials, parallelism int, seed uint64) ([]PointOutcome, error) {
	cfg, err := validatePoints(cfg, thetas, pointsPerTrial)
	if err != nil {
		return nil, err
	}
	results, err := Run(seed, trials, parallelism, pointsThetasTrialFunc(cfg, thetas, pointsPerTrial, trials, parallelism))
	if err != nil {
		return nil, fmt.Errorf("point experiment: %w", err)
	}
	return aggregatePointsThetas(cfg, thetas, results, pointsPerTrial)
}

// RunPointsThetasCheckpoint is RunPointsThetas with checkpoint/resume
// via a journal at journalPath; see RunGridCheckpoint for the resume
// contract. The journal header fingerprints the full θ-list, so a
// journal written for a different list fails loudly instead of mixing
// results.
func RunPointsThetasCheckpoint(
	ctx context.Context,
	journalPath string,
	cfg Config,
	thetas []float64,
	pointsPerTrial, trials, parallelism int,
	seed uint64,
) ([]PointOutcome, error) {
	cfg, err := validatePoints(cfg, thetas, pointsPerTrial)
	if err != nil {
		return nil, err
	}
	if trials <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadTrials, trials)
	}
	journal, err := checkpoint.Open(journalPath, checkpoint.Header{
		Kind:   "experiment/point-thetas",
		Seed:   seed,
		Trials: trials,
		Params: fmt.Sprintf("%s points=%d thetas=%s", cfg.fingerprint(), pointsPerTrial, formatThetas(thetas)),
	})
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	results, err := RunResumable(ctx, journal, seed, trials, parallelism,
		pointsThetasTrialFunc(cfg, thetas, pointsPerTrial, trials, parallelism))
	if err != nil {
		return nil, fmt.Errorf("point experiment: %w", err)
	}
	return aggregatePointsThetas(cfg, thetas, results, pointsPerTrial)
}
