package figures

import (
	"context"
	"fmt"
	"io"
	"math"

	"fullview/internal/analytic"
	"fullview/internal/construct"
	"fullview/internal/core"
	"fullview/internal/geom"
	"fullview/internal/report"
)

func init() {
	register(Experiment{
		Name:        "construct",
		ID:          "E13",
		Description: "Deterministic ring construction vs random deployment cost",
		Run:         runConstruct,
	})
}

// runConstruct quantifies the price of randomness (E13), in the spirit
// of the paper's Section VII-C comparison with Wang & Cao's
// lattice-based deployment: for each θ, build the deterministic ring
// deployment, verify it full-view covers a dense grid, and ask how many
// *randomly scattered* cameras with the same per-camera sensing area the
// sufficient CSA demands instead.
func runConstruct(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	cells := pick(opts, 8, 5)
	gridSide := pick(opts, 50, 30)

	table := report.NewTable(
		fmt.Sprintf("Deterministic rings vs random deployment (tiling %d×%d)", cells, cells),
		"theta/pi", "det. cameras", "per-camera s", "covered (grid)", "random n for same s", "random/det",
	)
	for _, t := range []float64{0.2, 0.25, 1.0 / 3, 0.5} {
		theta := t * math.Pi
		plan, err := construct.NewPlan(geom.UnitTorus, theta, cells)
		if err != nil {
			return err
		}
		net, err := plan.Build(geom.UnitTorus)
		if err != nil {
			return err
		}
		checker, err := core.NewChecker(net, theta)
		if err != nil {
			return err
		}
		// One deterministic deployment per θ — no trials to parallelise
		// over, so the verification sweep itself takes the workers.
		stats, err := checker.SurveyGridContext(context.Background(), gridSide, 0, gridSide, opts.Parallelism)
		if err != nil {
			return err
		}
		if !stats.AllFullView() {
			return fmt.Errorf("construct: plan θ=%.3gπ left %d/%d grid points uncovered",
				t, stats.Points-stats.FullView, stats.Points)
		}
		randomN, err := analytic.RequiredNSufficient(plan.SensingArea(), theta)
		if err != nil {
			return err
		}
		if err := table.AddRow(
			report.F4(t),
			report.I(plan.TotalCameras()),
			report.F(plan.SensingArea()),
			"yes",
			report.I(randomN),
			report.F4(float64(randomN)/float64(plan.TotalCameras())),
		); err != nil {
			return err
		}
	}
	if _, err := table.WriteTo(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nThe ratio is the density premium random scattering pays over careful\n"+
		"placement for the same camera hardware (cf. Section VII-C).")
	return err
}
