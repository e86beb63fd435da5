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
		Name:        "hetcsa",
		ID:          "E18",
		Description: "Heterogeneity: the CSA dichotomy driven by the weighted sum s_c alone",
		Run:         runHetCSA,
	})
}

// runHetCSA validates the paper's central heterogeneous claim (E18):
// the critical sensing area governs coverage through the *weighted sum*
// s_c = Σ c_y·s_y alone. Four profiles with wildly different group
// structure — homogeneous, mild two-group, extreme three-group, and a
// two-group profile whose radii span 2.5× and so land in two radius
// tiers of the spatial index — are each scaled to the same
// multiples of s_Nc(n); their grid failure probabilities must exhibit
// the same dichotomy at the same q.
func runHetCSA(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	theta := math.Pi / 4
	n := pick(opts, 800, 200)
	trials := opts.trials(60, 8)

	homogeneous, err := sensor.Homogeneous(0.1, math.Pi/2)
	if err != nil {
		return err
	}
	// Group shapes differ strongly; per-sensor sensing areas stay
	// comparable so the q = 2 scaling keeps radii well inside the torus
	// (profiles whose weighted area concentrates in a narrow-aperture
	// minority need radii beyond the region at simulable n — the same
	// finite-size boundary noted for E4's n = 200 column).
	twoGroup, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.08, Aperture: math.Pi},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.16, Aperture: math.Pi / 4},
	)
	if err != nil {
		return err
	}
	threeGroup, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.09, Aperture: math.Pi},
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.13, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.2, Radius: 0.18, Aperture: math.Pi / 4},
	)
	if err != nil {
		return err
	}
	twoTier, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.08, Aperture: math.Pi},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.2, Aperture: math.Pi / 2},
	)
	if err != nil {
		return err
	}
	profiles := []struct {
		name    string
		profile sensor.Profile
	}{
		{name: "homogeneous", profile: homogeneous},
		{name: "2 groups (wide+narrow)", profile: twoGroup},
		{name: "3 groups (mixed shapes)", profile: threeGroup},
		{name: "2 groups (radii 1:2.5)", profile: twoTier},
	}

	csa, err := analytic.CSANecessary(n, theta)
	if err != nil {
		return err
	}
	table := report.NewTable(
		fmt.Sprintf("Heterogeneity and the CSA — n = %d, θ = π/4, s_Nc = %s, %d trials/cell",
			n, report.F(csa), trials),
		"profile", "q", "P(grid fails H_N)", "mean point fraction",
	)
	for pi, prof := range profiles {
		for qi, q := range []float64{0.5, 2.0} {
			scaled, err := prof.profile.ScaleToArea(q * csa)
			if err != nil {
				return err
			}
			cfg := experiment.Config{N: n, Theta: theta, Profile: scaled}
			out, err := runGrid(opts, fmt.Sprintf("hetcsa-p%d-q%d", pi, qi), cfg, 0, trials,
				rng.Mix64(opts.Seed^uint64(pi*10+qi+211)))
			if err != nil {
				return err
			}
			fails := out.Trials - out.AllNecessary.Successes()
			if err := table.AddRow(
				prof.name, report.F4(q),
				report.F4(float64(fails)/float64(out.Trials)),
				report.F4(out.NecessaryFraction.Mean),
			); err != nil {
				return err
			}
		}
	}
	if _, err := table.WriteTo(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nAll profiles share the dichotomy at the same q: only the weighted sum\n"+
		"s_c matters, not how the area is split across groups (Definition 2).")
	return err
}
