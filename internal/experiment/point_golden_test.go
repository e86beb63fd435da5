package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fullview/internal/sensor"
	"fullview/internal/stats"
)

// pointGoldenPath holds the point experiment's outcomes for the
// goldenPointConfigs cells, recorded with the per-θ Checker evaluator
// the point experiment ran on before it became a one-θ RunPointsThetas.
const pointGoldenPath = "testdata/point_golden.json"

const (
	goldenSeed           = uint64(2012)
	goldenTrials         = 6
	goldenPointsPerTrial = 60
)

// goldenOutcome is PointOutcome in a comparable, JSON-round-trippable
// form: each counter as (successes, total), plus the covering-count
// summary. encoding/json round-trips every finite float64 exactly.
type goldenOutcome struct {
	Necessary             [2]int        `json:"necessary"`
	Sufficient            [2]int        `json:"sufficient"`
	FullView              [2]int        `json:"fullView"`
	NecessaryNotFullView  [2]int        `json:"necessaryNotFullView"`
	FullViewNotSufficient [2]int        `json:"fullViewNotSufficient"`
	KCovered              [2]int        `json:"kCovered"`
	CoveringCount         stats.Summary `json:"coveringCount"`
}

func goldenOf(o PointOutcome) goldenOutcome {
	pair := func(c stats.Counter) [2]int { return [2]int{c.Successes(), c.Total()} }
	return goldenOutcome{
		Necessary:             pair(o.Necessary),
		Sufficient:            pair(o.Sufficient),
		FullView:              pair(o.FullView),
		NecessaryNotFullView:  pair(o.NecessaryNotFullView),
		FullViewNotSufficient: pair(o.FullViewNotSufficient),
		KCovered:              pair(o.KCovered),
		CoveringCount:         o.CoveringCount,
	}
}

// goldenPointConfigs are the pinned cells: a heterogeneous profile
// deployed uniformly and as a Poisson process, both counting k-coverage.
func goldenPointConfigs(t *testing.T) map[string]Config {
	t.Helper()
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.12, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.25, Aperture: math.Pi / 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"uniform": {N: 400, Theta: math.Pi / 3, Profile: profile, KTarget: 6},
		"poisson": {N: 500, Theta: math.Pi / 2, Profile: profile, Deployment: DeployPoisson, KTarget: 8},
	}
}

// TestRunPointsGolden pins RunPoints and RunPointsCheckpoint to the
// recorded outcomes, bit for bit, at one and three workers.
func TestRunPointsGolden(t *testing.T) {
	data, err := os.ReadFile(pointGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenOutcome
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range goldenPointConfigs(t) {
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden outcome in %s", name, pointGoldenPath)
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				out, err := RunPoints(cfg, goldenPointsPerTrial, goldenTrials, workers, goldenSeed)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenOf(out); got != want {
					t.Errorf("RunPoints:\n got %+v\nwant %+v", got, want)
				}
				path := filepath.Join(t.TempDir(), "points.jsonl")
				out, err = RunPointsCheckpoint(context.Background(), path, cfg,
					goldenPointsPerTrial, goldenTrials, workers, goldenSeed)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenOf(out); got != want {
					t.Errorf("RunPointsCheckpoint:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestRunPointsThetasMatchesRunPoints runs each golden cell as one
// 3-angle experiment: outcome k must equal RunPoints at θ_k, and the
// cell's own θ must reproduce the recorded outcome.
func TestRunPointsThetasMatchesRunPoints(t *testing.T) {
	data, err := os.ReadFile(pointGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenOutcome
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range goldenPointConfigs(t) {
		thetas := []float64{math.Pi / 5, cfg.Theta, 0.6 * math.Pi}
		outs, err := RunPointsThetas(cfg, thetas, goldenPointsPerTrial, goldenTrials, 2, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(thetas) {
			t.Fatalf("%s: %d outcomes for %d thetas", name, len(outs), len(thetas))
		}
		for k, theta := range thetas {
			one := cfg
			one.Theta = theta
			want, err := RunPoints(one, goldenPointsPerTrial, goldenTrials, 1, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outs[k], want) {
				t.Errorf("%s θ=%.4f: RunPointsThetas outcome %d\n got %+v\nwant %+v", name, theta, k, outs[k], want)
			}
		}
		if got := goldenOf(outs[1]); got != golden[name] {
			t.Errorf("%s: outcome at the cell's θ\n got %+v\nwant %+v", name, got, golden[name])
		}
	}
}
