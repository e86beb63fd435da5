package experiment

import (
	"errors"
	"math"
	"testing"

	"fullview/internal/analytic"
	"fullview/internal/sensor"
)

func testProfile(t *testing.T) sensor.Profile {
	t.Helper()
	p, err := sensor.Homogeneous(0.2, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := Config{N: 100, Theta: math.Pi / 4, Profile: testProfile(t)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{name: "tiny n", mutate: func(c *Config) { c.N = 1 }, wantErr: ErrBadN},
		{name: "zero theta", mutate: func(c *Config) { c.Theta = 0 }, wantErr: ErrBadTheta},
		{name: "theta above pi", mutate: func(c *Config) { c.Theta = 4 }, wantErr: ErrBadTheta},
		{name: "bad scheme", mutate: func(c *Config) { c.Deployment = Deployment(99) }, wantErr: ErrBadDeployment},
		{name: "empty profile", mutate: func(c *Config) { c.Profile = sensor.Profile{} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDeploymentString(t *testing.T) {
	if DeployUniform.String() != "uniform" || DeployPoisson.String() != "poisson" {
		t.Error("Deployment String() values changed")
	}
	if Deployment(42).String() == "" {
		t.Error("unknown deployment should still print")
	}
}

func TestRunGridDeterministic(t *testing.T) {
	cfg := Config{N: 100, Theta: math.Pi / 2, Profile: testProfile(t)}
	a, err := RunGrid(cfg, 10, 8, 4, 2024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGrid(cfg, 10, 8, 1, 2024)
	if err != nil {
		t.Fatal(err)
	}
	if a.AllNecessary.Successes() != b.AllNecessary.Successes() ||
		a.NecessaryFraction.Mean != b.NecessaryFraction.Mean {
		t.Error("grid outcome differs across parallelism")
	}
}

func TestRunGridOrderingInvariants(t *testing.T) {
	cfg := Config{N: 200, Theta: math.Pi / 3, Profile: testProfile(t)}
	out, err := RunGrid(cfg, 12, 10, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 10 {
		t.Fatalf("Trials = %d", out.Trials)
	}
	// sufficient ⊆ full-view ⊆ necessary holds per point, hence for
	// "all points" events and for mean fractions.
	if out.AllSufficient.Successes() > out.AllFullView.Successes() ||
		out.AllFullView.Successes() > out.AllNecessary.Successes() {
		t.Errorf("event ordering violated: %d/%d/%d",
			out.AllSufficient.Successes(), out.AllFullView.Successes(), out.AllNecessary.Successes())
	}
	if out.SufficientFraction.Mean > out.FullViewFraction.Mean+1e-12 ||
		out.FullViewFraction.Mean > out.NecessaryFraction.Mean+1e-12 {
		t.Errorf("fraction ordering violated: %v/%v/%v",
			out.SufficientFraction.Mean, out.FullViewFraction.Mean, out.NecessaryFraction.Mean)
	}
}

func TestRunGridDenseDefault(t *testing.T) {
	cfg := Config{N: 50, Theta: math.Pi / 2, Profile: testProfile(t)}
	if _, err := RunGrid(cfg, 0, 2, 0, 1); err != nil {
		t.Fatalf("dense-grid default failed: %v", err)
	}
}

func TestRunGridInvalidConfig(t *testing.T) {
	cfg := Config{N: 1, Theta: math.Pi / 2, Profile: testProfile(t)}
	if _, err := RunGrid(cfg, 10, 2, 0, 1); !errors.Is(err, ErrBadN) {
		t.Errorf("error = %v, want ErrBadN", err)
	}
}

// runPoints is the point experiment at cfg.Theta alone: RunPointsThetas
// with the one-element list {cfg.Theta}.
func runPoints(cfg Config, pointsPerTrial, trials, parallelism int, seed uint64) (PointOutcome, error) {
	outs, err := RunPointsThetas(cfg, []float64{cfg.Theta}, pointsPerTrial, trials, parallelism, seed)
	if err != nil {
		return PointOutcome{}, err
	}
	return outs[0], nil
}

func TestRunPointsMatchesAnalyticUniform(t *testing.T) {
	// E10 in miniature: empirical point-failure frequency vs Eq. (2).
	prof := testProfile(t)
	cfg := Config{N: 300, Theta: math.Pi / 2, Profile: prof}
	out, err := runPoints(cfg, 40, 150, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	fail, err := analytic.UniformNecessaryFailure(prof, 300, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Necessary.Fraction()
	want := 1 - fail
	// 6000 pooled points; allow a loose tolerance (sector-correlation at
	// finite n plus Monte-Carlo noise).
	if math.Abs(got-want) > 0.03 {
		t.Errorf("necessary fraction = %v, analytic %v", got, want)
	}
}

func TestRunPointsPoissonMatchesTheorem(t *testing.T) {
	prof := testProfile(t)
	theta := math.Pi / 2
	cfg := Config{N: 300, Theta: theta, Profile: prof, Deployment: DeployPoisson}
	out, err := runPoints(cfg, 40, 150, 0, 123)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := analytic.PoissonPN(prof, 300, theta)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := analytic.PoissonPS(prof, 300, theta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Necessary.Fraction()-pn) > 0.03 {
		t.Errorf("P_N: simulated %v vs analytic %v", out.Necessary.Fraction(), pn)
	}
	if math.Abs(out.Sufficient.Fraction()-ps) > 0.03 {
		t.Errorf("P_S: simulated %v vs analytic %v", out.Sufficient.Fraction(), ps)
	}
}

func TestRunPointsContingencyConsistency(t *testing.T) {
	cfg := Config{N: 150, Theta: math.Pi / 3, Profile: testProfile(t)}
	out, err := runPoints(cfg, 50, 40, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// necessary ≥ fullView ≥ sufficient; gap counters consistent.
	if out.FullView.Successes() > out.Necessary.Successes() {
		t.Error("full-view exceeds necessary")
	}
	if out.Sufficient.Successes() > out.FullView.Successes() {
		t.Error("sufficient exceeds full-view")
	}
	if got, want := out.NecessaryNotFullView.Successes(), out.Necessary.Successes()-out.FullView.Successes(); got != want {
		t.Errorf("necessary-not-fullview = %d, want %d", got, want)
	}
	if got, want := out.FullViewNotSufficient.Successes(), out.FullView.Successes()-out.Sufficient.Successes(); got != want {
		t.Errorf("fullview-not-sufficient = %d, want %d", got, want)
	}
	if out.CoveringCount.N != 50*40 {
		t.Errorf("covering sample size = %d", out.CoveringCount.N)
	}
}

func TestRunPointsExpectedCoverage(t *testing.T) {
	// Mean covering count ≈ n·s_c (Section VI-A).
	prof := testProfile(t)
	cfg := Config{N: 500, Theta: math.Pi / 2, Profile: prof}
	out, err := runPoints(cfg, 30, 80, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := analytic.ExpectedCoverageCount(prof, 500)
	if math.Abs(out.CoveringCount.Mean-want) > 0.08*want {
		t.Errorf("mean covering = %v, want ≈ %v", out.CoveringCount.Mean, want)
	}
}

func TestRunPointsKTarget(t *testing.T) {
	// With an exact-divisor θ the necessary condition forces ⌈π/θ⌉
	// distinct covering cameras, so necessary points ⊆ k-covered points.
	theta := math.Pi / 4
	cfg := Config{
		N: 200, Theta: theta, Profile: testProfile(t),
		KTarget: analytic.KNecessary(theta),
	}
	out, err := runPoints(cfg, 50, 40, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if counts(out.KCovered)[1] == 0 {
		t.Fatal("KTarget set but KCovered not populated")
	}
	if out.KCovered.Successes() < out.Necessary.Successes() {
		t.Errorf("k-covered (%d) below necessary (%d): necessary must imply k-coverage",
			out.KCovered.Successes(), out.Necessary.Successes())
	}

	// KTarget disabled leaves the counter empty.
	cfg.KTarget = 0
	out, err = runPoints(cfg, 10, 5, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if counts(out.KCovered)[1] != 0 {
		t.Error("KTarget=0 should leave KCovered empty")
	}
}

func TestRunPointsValidation(t *testing.T) {
	cfg := Config{N: 100, Theta: math.Pi / 2, Profile: testProfile(t)}
	if _, err := runPoints(cfg, 0, 10, 0, 1); !errors.Is(err, ErrBadPoints) {
		t.Errorf("error = %v, want ErrBadPoints", err)
	}
	bad := cfg
	bad.Theta = -1
	if _, err := runPoints(bad, 10, 10, 0, 1); !errors.Is(err, ErrBadTheta) {
		t.Errorf("error = %v, want ErrBadTheta", err)
	}
}
