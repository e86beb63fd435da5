package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// rowsNet is a heterogeneous deployment dense enough that every test
// grid mixes full-view covered, partly covered and uncovered rows.
func rowsNet(tb testing.TB) *sensor.Network {
	tb.Helper()
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.12, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.22, Aperture: math.Pi / 3},
	)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 400, rng.New(23, 0))
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// checkSurveyRows holds SurveyRowsContext over rows [lo, hi) of a k×k
// grid to its definition: every (slot, row) entry equals a one-θ
// Checker.SurveyRegion of that row alone, compared with ==.
func checkSurveyRows(t *testing.T, net *sensor.Network, k, lo, hi, workers int, thetas []float64) {
	t.Helper()
	points, err := deploy.GridPoints(geom.UnitTorus, k)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMultiChecker(net, thetas)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.SurveyRowsContext(context.Background(), points[lo*k:hi*k], k, workers)
	if err != nil {
		t.Fatal(err)
	}
	rows := hi - lo
	if len(got) != len(thetas)*rows {
		t.Fatalf("k=%d rows [%d, %d) θ=%v: %d entries, want %d", k, lo, hi, thetas, len(got), len(thetas)*rows)
	}
	for slot, theta := range thetas {
		c, err := NewChecker(net, theta)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			row := lo + r
			want := c.SurveyRegion(points[row*k : (row+1)*k])
			if got[slot*rows+r] != want {
				t.Fatalf("k=%d rows [%d, %d) workers=%d θ=%v: slot %d row %d = %+v, want %+v",
					k, lo, hi, workers, thetas, slot, row, got[slot*rows+r], want)
			}
		}
	}
}

// FuzzSurveyRows fuzzes the grid side, the worker count, the row range
// and one to three θ of the fused row-group survey against per-row,
// per-θ Checker surveys. Seeds include grids whose rows straddle
// sweep.BatchSize batches and worker chunk boundaries.
func FuzzSurveyRows(f *testing.F) {
	net := rowsNet(f)
	f.Add(uint8(4), uint8(1), uint8(0), uint8(4), uint8(1), uint8(64), uint8(0), uint8(0))
	f.Add(uint8(7), uint8(2), uint8(3), uint8(4), uint8(3), uint8(51), uint8(64), uint8(128))
	f.Add(uint8(40), uint8(3), uint8(5), uint8(30), uint8(2), uint8(40), uint8(200), uint8(0))
	f.Add(uint8(47), uint8(4), uint8(0), uint8(47), uint8(3), uint8(10), uint8(90), uint8(255))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, side, workers, lo, span, nThetas, t0, t1, t2 uint8) {
		k := 1 + int(side)%48
		rowLo := int(lo) % (k + 1)
		rowHi := rowLo + int(span)%(k-rowLo+1)
		// θ ∈ [π/128, π]: every accepted partition, far from MaxSectors.
		thetas := []float64{}
		for _, b := range []uint8{t0, t1, t2}[:1+int(nThetas)%3] {
			thetas = append(thetas, float64(1+int(b)/2)*math.Pi/128)
		}
		checkSurveyRows(t, net, k, rowLo, rowHi, 1+int(workers)%4, thetas)
	})
}

func TestSurveyRowsWholeGridAndWorkers(t *testing.T) {
	net := rowsNet(t)
	thetas := []float64{math.Pi / 5, math.Pi / 4, math.Pi / 2}
	for _, workers := range []int{1, 2, 3, 8} {
		checkSurveyRows(t, net, 33, 0, 33, workers, thetas)
		checkSurveyRows(t, net, 33, 7, 19, workers, thetas[1:])
	}
}

func TestSurveyRowsRejectsRaggedRows(t *testing.T) {
	mc, err := NewMultiChecker(rowsNet(t), []float64{math.Pi / 4})
	if err != nil {
		t.Fatal(err)
	}
	points, err := deploy.GridPoints(geom.UnitTorus, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rowLen := range []int{0, -5, 4} {
		if _, err := mc.SurveyRowsContext(context.Background(), points, rowLen, 1); err == nil {
			t.Errorf("rowLen %d over %d points accepted", rowLen, len(points))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := mc.SurveyRowsContext(ctx, points, 5, 2); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled survey = %v, %v; want nil, context.Canceled", got, err)
	}
}
