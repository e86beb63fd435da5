package figures

import (
	"context"
	"fmt"
	"io"
	"math"

	"fullview/internal/analytic"
	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/experiment"
	"fullview/internal/geom"
	"fullview/internal/lifetime"
	"fullview/internal/report"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/stats"
)

func init() {
	register(Experiment{
		Name:        "dutycycle",
		ID:          "E16",
		Description: "Duty cycling and lifetime: awake probability p behaves like n→n·p",
		Run:         runDutyCycle,
	})
}

// runDutyCycle operationalises the sleep parameter p that Section VII-B
// imports from Kumar et al. (E16): a duty-cycled network with awake
// probability p should match the analytic point probability of a full
// deployment of n·p sensors, and exponential battery failures give the
// network a measurable full-view coverage lifetime.
func runDutyCycle(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	theta := math.Pi / 3
	profile, err := sensor.Homogeneous(0.2, math.Pi/2)
	if err != nil {
		return err
	}
	n := pick(opts, 1500, 600)
	trials := opts.trials(60, 10)
	gridSide := pick(opts, 25, 12)

	duty := report.NewTable(
		fmt.Sprintf("Duty cycling — n = %d, θ = π/3, %d trials per p", n, trials),
		"p", "simulated P(necessary)", "analytic at n*p", "simulated P(full-view)",
	)
	for pi, p := range []float64{0.25, 0.5, 0.75, 1.0} {
		type trialOut struct{ nec, fv float64 }
		results, err := experiment.Run(rng.Mix64(opts.Seed^uint64(pi+151)), trials, opts.Parallelism,
			func(_ int, r *rng.PCG) (trialOut, error) {
				full, err := deploy.Uniform(geom.UnitTorus, profile, n, r)
				if err != nil {
					return trialOut{}, err
				}
				awake, err := lifetime.SampleAwake(full, p, r)
				if err != nil {
					return trialOut{}, err
				}
				checker, err := core.NewChecker(awake, theta)
				if err != nil {
					return trialOut{}, err
				}
				s, err := checker.SurveyGridContext(context.Background(), gridSide, 0, gridSide, 1)
				if err != nil {
					return trialOut{}, err
				}
				return trialOut{nec: s.NecessaryFraction(), fv: s.FullViewFraction()}, nil
			})
		if err != nil {
			return err
		}
		var nec, fv []float64
		for _, tr := range results {
			nec = append(nec, tr.nec)
			fv = append(fv, tr.fv)
		}
		reducedN := int(math.Round(p * float64(n)))
		fail, err := analytic.UniformNecessaryFailure(profile, reducedN, theta)
		if err != nil {
			return err
		}
		if err := duty.AddRow(
			report.F4(p),
			report.F4(stats.Summarize(nec).Mean),
			report.F4(1-fail),
			report.F4(stats.Summarize(fv).Mean),
		); err != nil {
			return err
		}
	}
	if _, err := duty.WriteTo(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	// Coverage lifetime under exponential battery failures.
	life := report.NewTable(
		fmt.Sprintf("Coverage lifetime — exponential failures (mean 10), threshold 90%%, %d trials", trials),
		"n", "mean lifetime", "min", "max",
	)
	for ci, nn := range pick(opts, []int{2000, 4000, 8000}, []int{1200, 2400}) {
		results, err := experiment.Run(rng.Mix64(opts.Seed^uint64(ci+173)), trials, opts.Parallelism,
			func(_ int, r *rng.PCG) (float64, error) {
				net, err := deploy.Uniform(geom.UnitTorus, profile, nn, r)
				if err != nil {
					return 0, err
				}
				fs, err := lifetime.NewFailureSchedule(net, 10, r)
				if err != nil {
					return 0, err
				}
				return fs.CoverageLifetime(theta, gridSide, 0.9)
			})
		if err != nil {
			return err
		}
		s := stats.Summarize(results)
		if err := life.AddRow(
			report.I(nn), report.F4(s.Mean), report.F4(s.Min), report.F4(s.Max),
		); err != nil {
			return err
		}
	}
	_, err = life.WriteTo(w)
	return err
}
