package lifetime

import (
	"context"
	"errors"
	"math"
	"testing"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

func testNetwork(t *testing.T, n int, seed uint64) *sensor.Network {
	t.Helper()
	profile, err := sensor.Homogeneous(0.25, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, n, rng.New(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSampleAwakeEdgeProbabilities(t *testing.T) {
	net := testNetwork(t, 100, 1)
	full, err := SampleAwake(net, 1, rng.New(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 100 {
		t.Errorf("p=1 kept %d cameras", full.Len())
	}
	empty, err := SampleAwake(net, 0, rng.New(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("p=0 kept %d cameras", empty.Len())
	}
}

func TestSampleAwakeBinomialMean(t *testing.T) {
	net := testNetwork(t, 200, 3)
	r := rng.New(4, 0)
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		sub, err := SampleAwake(net, 0.3, r)
		if err != nil {
			t.Fatal(err)
		}
		total += sub.Len()
	}
	mean := float64(total) / trials
	se := math.Sqrt(200 * 0.3 * 0.7 / trials)
	if math.Abs(mean-60) > 6*se {
		t.Errorf("mean awake = %v, want ≈ 60", mean)
	}
}

func TestSampleAwakeInvalidProbability(t *testing.T) {
	net := testNetwork(t, 10, 1)
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := SampleAwake(net, p, rng.New(1, 0)); !errors.Is(err, ErrBadProbability) {
			t.Errorf("p=%v: error = %v, want ErrBadProbability", p, err)
		}
	}
}

func TestFailureScheduleExponentialMean(t *testing.T) {
	net := testNetwork(t, 2000, 5)
	fs, err := NewFailureSchedule(net, 10, rng.New(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	times := fs.FailureTimes()
	sum := 0.0
	for _, ft := range times {
		if ft < 0 {
			t.Fatalf("negative failure time %v", ft)
		}
		sum += ft
	}
	mean := sum / float64(len(times))
	if math.Abs(mean-10) > 1.5 { // se ≈ 10/√2000 ≈ 0.22; generous band
		t.Errorf("mean lifetime = %v, want ≈ 10", mean)
	}
}

func TestFailureScheduleInvalidMean(t *testing.T) {
	net := testNetwork(t, 10, 1)
	for _, mean := range []float64{0, -1, math.Inf(1)} {
		if _, err := NewFailureSchedule(net, mean, rng.New(1, 0)); !errors.Is(err, ErrBadMean) {
			t.Errorf("mean=%v: error = %v, want ErrBadMean", mean, err)
		}
	}
}

func TestAliveAtMonotone(t *testing.T) {
	net := testNetwork(t, 300, 7)
	fs, err := NewFailureSchedule(net, 5, rng.New(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	prev := net.Len() + 1
	for _, tm := range []float64{0, 1, 3, 5, 10, 50} {
		alive, err := fs.AliveAt(tm)
		if err != nil {
			t.Fatal(err)
		}
		if alive.Len() >= prev {
			t.Errorf("t=%v: %d alive, expected strictly fewer than %d (w.h.p.)", tm, alive.Len(), prev)
		}
		prev = alive.Len()
	}
	if _, err := fs.AliveAt(-1); !errors.Is(err, ErrBadTime) {
		t.Errorf("negative time accepted")
	}
}

func TestAliveAtTimeZeroIsFullNetwork(t *testing.T) {
	net := testNetwork(t, 50, 9)
	fs, err := NewFailureSchedule(net, 5, rng.New(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	alive, err := fs.AliveAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if alive.Len() != 50 {
		t.Errorf("alive at t=0: %d, want 50", alive.Len())
	}
}

func TestCoverageLifetime(t *testing.T) {
	net := testNetwork(t, 2500, 11)
	fs, err := NewFailureSchedule(net, 10, rng.New(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	const side = 12
	theta := math.Pi / 2
	life, err := fs.CoverageLifetime(theta, side, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if life <= 0 || math.IsInf(life, 1) {
		t.Fatalf("lifetime = %v, want finite positive", life)
	}
	// Just before the lifetime, coverage holds; just after, it doesn't.
	before, err := fs.coverageAt(context.Background(), life*(1-1e-9), theta, side, 1)
	if err != nil {
		t.Fatal(err)
	}
	if before < 0.9 {
		t.Errorf("coverage %v below threshold just before the lifetime", before)
	}
	after, err := fs.coverageAt(context.Background(), life, theta, side, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after >= 0.9 {
		t.Errorf("coverage %v still meets threshold at the lifetime instant", after)
	}
}

func TestCoverageLifetimeSparseStartsDead(t *testing.T) {
	net := testNetwork(t, 5, 13)
	fs, err := NewFailureSchedule(net, 10, rng.New(14, 0))
	if err != nil {
		t.Fatal(err)
	}
	const side = 10
	life, err := fs.CoverageLifetime(math.Pi/4, side, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if life != 0 {
		t.Errorf("lifetime = %v, want 0 for an undersized network", life)
	}
}

func TestCoverageLifetimeValidation(t *testing.T) {
	net := testNetwork(t, 10, 15)
	fs, err := NewFailureSchedule(net, 10, rng.New(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	const side = 5
	for _, th := range []float64{0, -0.5, 1.5} {
		if _, err := fs.CoverageLifetime(math.Pi/4, side, th); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("threshold %v: error = %v, want ErrBadThreshold", th, err)
		}
	}
}

// TestDutyCycleCoverageMatchesReducedN validates the Section VII-B
// reading of Kumar's sleep parameter: a duty-cycled network with awake
// probability p behaves like a full deployment of ≈ n·p sensors.
func TestDutyCycleCoverageMatchesReducedN(t *testing.T) {
	profile, err := sensor.Homogeneous(0.2, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	const p = 0.5
	theta := math.Pi / 3
	points, err := deploy.GridPoints(geom.UnitTorus, 15)
	if err != nil {
		t.Fatal(err)
	}

	r := rng.New(20, 0)
	fracDuty, fracReduced := 0.0, 0.0
	const trials = 30
	for i := 0; i < trials; i++ {
		full, err := deploy.Uniform(geom.UnitTorus, profile, n, r)
		if err != nil {
			t.Fatal(err)
		}
		duty, err := SampleAwake(full, p, r)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := core.NewChecker(duty, theta)
		if err != nil {
			t.Fatal(err)
		}
		fracDuty += dc.SurveyRegion(points).FullViewFraction()

		reduced, err := deploy.Uniform(geom.UnitTorus, profile, n/2, r)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := core.NewChecker(reduced, theta)
		if err != nil {
			t.Fatal(err)
		}
		fracReduced += rc.SurveyRegion(points).FullViewFraction()
	}
	fracDuty /= trials
	fracReduced /= trials
	if math.Abs(fracDuty-fracReduced) > 0.05 {
		t.Errorf("duty-cycled coverage %v vs reduced-n coverage %v", fracDuty, fracReduced)
	}
}
