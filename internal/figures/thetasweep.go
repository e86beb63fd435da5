package figures

import (
	"fmt"
	"io"
	"math"

	"fullview/internal/analytic"
	"fullview/internal/experiment"
	"fullview/internal/report"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

func init() {
	register(Experiment{
		Name:        "thetasweep",
		ID:          "E19",
		Description: "Effective-angle sweep: per-point condition probabilities vs θ from one fused simulation",
		Run:         runThetaSweep,
	})
}

// runThetaSweep traces how the per-point probabilities of the necessary
// condition, full-view coverage, and the sufficient condition move with
// the effective angle θ on a fixed heterogeneous deployment regime
// (E19). The whole θ-list is diagnosed from one simulation — one
// deployment, one spatial index, and one candidate gather per sample
// point (core.MultiChecker via RunPointsThetas) — so the sweep costs
// barely more than a single-θ experiment; a per-θ loop of one-θ runs
// would redo the deployment and gather work |θ| times for identical
// results. Analytic overlays are Equations 2 and 13 per θ.
func runThetaSweep(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	thetas := []float64{math.Pi / 6, math.Pi / 5, math.Pi / 4, math.Pi / 3, math.Pi / 2}
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.1, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.3, Radius: 0.15, Aperture: math.Pi / 3},
		sensor.GroupSpec{Fraction: 0.2, Radius: 0.2, Aperture: math.Pi / 4},
	)
	if err != nil {
		return err
	}
	n := pick(opts, 1200, 300)
	trials := opts.trials(120, 15)
	pointsPerTrial := pick(opts, 60, 25)

	cfg := experiment.Config{N: n, Profile: profile}
	outs, err := runPointsThetas(opts, "thetasweep", cfg, thetas, pointsPerTrial, trials,
		rng.Mix64(opts.Seed^uint64(19)))
	if err != nil {
		return err
	}

	table := report.NewTable(
		fmt.Sprintf("Effective-angle sweep — 3-group heterogeneous network, n = %d, %d trials × %d points, one fused simulation",
			n, trials, pointsPerTrial),
		"θ", "1-P(F_N) analytic", "P(nec)", "P(full-view)", "P(suf)", "1-P(F_S) analytic",
	)
	for ti, theta := range thetas {
		necFail, err := analytic.UniformNecessaryFailure(profile, n, theta)
		if err != nil {
			return err
		}
		sufFail, err := analytic.UniformSufficientFailure(profile, n, theta)
		if err != nil {
			return err
		}
		out := outs[ti]
		if err := table.AddRow(
			report.F4(theta),
			report.F4(1-necFail),
			report.F4(out.Necessary.Fraction()),
			report.F4(out.FullView.Fraction()),
			report.F4(out.Sufficient.Fraction()),
			report.F4(1-sufFail),
		); err != nil {
			return err
		}
	}
	_, err = table.WriteTo(w)
	return err
}
