package core

import (
	"context"
	"errors"
	"math"
	"slices"
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

// checkSurveyRows holds SurveyGridContext over rows [lo, hi) of a k×k
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
	got, err := mc.SurveyGridContext(context.Background(), k, lo, hi, workers)
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

// TestSurveyGridRejectsBadArguments pins the grid entry's argument
// checks — a grid side k ≤ 0 and rows outside [0, k) are refused on
// both entries — and a pre-cancelled sweep's nil, context.Canceled.
func TestSurveyGridRejectsBadArguments(t *testing.T) {
	mc, err := NewMultiChecker(rowsNet(t), []float64{math.Pi / 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(rowsNet(t), math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct{ k, lo, hi int }{
		{0, 0, 0}, {-5, 0, 0}, {5, -1, 2}, {5, 3, 2}, {5, 0, 6}, {5, 6, 6},
	} {
		if got, err := mc.SurveyGridContext(context.Background(), a.k, a.lo, a.hi, 1); err == nil || got != nil {
			t.Errorf("k=%d rows [%d, %d): MultiChecker got %v, %v; want nil and an error", a.k, a.lo, a.hi, got, err)
		}
		if got, err := c.SurveyGridContext(context.Background(), a.k, a.lo, a.hi, 1); err == nil || got != (RegionStats{}) {
			t.Errorf("k=%d rows [%d, %d): Checker got %+v, %v; want zero stats and an error", a.k, a.lo, a.hi, got, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := mc.SurveyGridContext(ctx, 5, 0, 5, 2); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled survey = %v, %v; want nil, context.Canceled", got, err)
	}
	if got, err := c.SurveyGridContext(ctx, 5, 0, 5, 2); !errors.Is(err, context.Canceled) || got != (RegionStats{}) {
		t.Fatalf("cancelled one-θ survey = %+v, %v; want zero stats, context.Canceled", got, err)
	}
}

// TestCheckerSurveyGridMatchesSurveyRegion pins the one-θ grid entry to
// the per-point oracle over the same points, for row blocks and the
// whole grid.
func TestCheckerSurveyGridMatchesSurveyRegion(t *testing.T) {
	net := rowsNet(t)
	c, err := NewChecker(net, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	const k = 29
	points, err := deploy.GridPoints(geom.UnitTorus, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, k}, {3, 17}, {28, 29}, {9, 9}} {
		for _, workers := range []int{1, 3} {
			got, err := c.SurveyGridContext(context.Background(), k, r[0], r[1], workers)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.SurveyRegion(points[r[0]*k : r[1]*k]); got != want {
				t.Fatalf("rows [%d, %d) workers=%d: %+v, want %+v", r[0], r[1], workers, got, want)
			}
		}
	}
}

// TestReportOrderIndependent pins the property the grid raster relies
// on: report reads only the multiset of a point's directions. Every
// permutation of a direction list — with +0 and −0, ±π, exact
// duplicates, and lists gathered from a real deployment — must give a
// bit-identical MultiReport.
func TestReportOrderIndependent(t *testing.T) {
	thetas := []float64{math.Pi / 7, math.Pi / 4, math.Pi / 2, math.Pi}
	mc, err := NewMultiChecker(rowsNet(t), thetas)
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	lists := [][]float64{
		{0, negZero},
		{negZero, 0, 0, math.Pi / 2, -math.Pi / 2, math.Pi},
		{math.Pi, -math.Pi, 1, 1, 1, negZero, 2.5, -2.5, 0},
		{0.1, 0.1, 0.1},
		{negZero},
	}
	for i := 0; i < 40; i++ {
		p := geom.V(float64(i%7)/7+0.01, float64(i/7)/6+0.02)
		lists = append(lists, mc.index.AppendViewedDirections(nil, p))
	}
	r := rng.New(5, 5)
	for li, list := range lists {
		want := cloneReport(mc.report(append([]float64(nil), list...)))
		for trial := 0; trial < 20; trial++ {
			perm := append([]float64(nil), list...)
			for i := len(perm) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			got := mc.report(perm)
			if got.NumCovering != want.NumCovering || math.Float64bits(got.MaxGap) != math.Float64bits(want.MaxGap) ||
				!slices.Equal(got.PerTheta, want.PerTheta) {
				t.Fatalf("list %d %v, permutation %d: %+v, want %+v", li, list, trial, got, want)
			}
		}
	}
}

// cloneReport copies rep's reused PerTheta slice.
func cloneReport(rep MultiReport) MultiReport {
	rep.PerTheta = append([]ThetaReport(nil), rep.PerTheta...)
	return rep
}
