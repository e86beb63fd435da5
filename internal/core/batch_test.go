package core

// Equivalence tests for the batch kernel entry points: SurveyBatch and
// EvaluateBatch must reproduce the point-at-a-time Report / Evaluate
// verdicts exactly — compared with ==, never a tolerance — over
// randomized heterogeneous networks, over mutated MutableIndex sources
// with a live overlay, and at every batch-boundary shape the sweep
// engine produces. Plus testing.AllocsPerRun pins for the batch calls.

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// TestSurveyBatchMatchesReportLoop pins SurveyBatch to the Report loop
// it replaces: identical RegionStats (including the carried covering
// sum via MeanCovering) for uneven batch sizes, on wide-span networks.
func TestSurveyBatchMatchesReportLoop(t *testing.T) {
	profile := wideSpanProfile(t)
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed, 21)
		net, err := deploy.Uniform(geom.UnitTorus, profile, 350, r)
		if err != nil {
			t.Fatal(err)
		}
		checker, err := NewChecker(net, math.Pi/4)
		if err != nil {
			t.Fatal(err)
		}
		pts := equivPoints(net, r, 200)
		// Sizes straddle sweep batch boundaries: empty, one, a prime,
		// and the full set.
		for _, size := range []int{0, 1, 37, len(pts)} {
			batch := pts[:size]
			var want RegionStats
			for _, p := range batch {
				want.observe(checker.Report(p))
			}
			if got := checker.SurveyBatch(batch); got != want {
				t.Fatalf("seed %d size %d: SurveyBatch = %+v, want %+v", seed, size, got, want)
			}
		}
	}
}

// TestEvaluateBatchMatchesEvaluate pins every per-point multi-θ report
// from EvaluateBatch to its Evaluate twin, field for field.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	profile := wideSpanProfile(t)
	thetas := []float64{math.Pi / 6, 0.15 * math.Pi, math.Pi / 4, math.Pi / 2}
	r := rng.New(8, 2)
	net, err := deploy.Uniform(geom.UnitTorus, profile, 300, r)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewMultiChecker(net, thetas)
	if err != nil {
		t.Fatal(err)
	}
	point, err := NewMultiChecker(net, thetas)
	if err != nil {
		t.Fatal(err)
	}
	pts := equivPoints(net, r, 160)
	seen := 0
	batch.EvaluateBatch(pts, func(i int, rep MultiReport) {
		if i != seen {
			t.Fatalf("callback order: got index %d, want %d", i, seen)
		}
		seen++
		want := point.Evaluate(pts[i])
		if rep.NumCovering != want.NumCovering || rep.MaxGap != want.MaxGap {
			t.Fatalf("point %d: shared fields (%d, %v), want (%d, %v)",
				i, rep.NumCovering, rep.MaxGap, want.NumCovering, want.MaxGap)
		}
		for k := range want.PerTheta {
			if rep.PerTheta[k] != want.PerTheta[k] {
				t.Fatalf("point %d θ[%d]: batch %+v, want %+v",
					i, k, rep.PerTheta[k], want.PerTheta[k])
			}
		}
	})
	if seen != len(pts) {
		t.Fatalf("EvaluateBatch visited %d points, want %d", seen, len(pts))
	}
}

// TestSurveyBatchMutatedSource runs the batch kernel over a
// MutableIndex whose overlay is live (removals and additions not folded
// into the CSR base) and over a pinned snapshot, comparing against the
// point path on the same source.
func TestSurveyBatchMutatedSource(t *testing.T) {
	profile := wideSpanProfile(t)
	r := rng.New(31, 4)
	net, err := deploy.Uniform(geom.UnitTorus, profile, 250, r)
	if err != nil {
		t.Fatal(err)
	}
	m := spatial.NewMutableIndex(net, spatial.MutableOptions{RebuildFraction: -1})
	if _, err := m.Remove([]int{2, 17, 40}); err != nil {
		t.Fatal(err)
	}
	adds := make([]sensor.Camera, 5)
	for i := range adds {
		adds[i] = sensor.Camera{
			Pos:      geom.V(r.Float64(), r.Float64()),
			Orient:   r.Float64() * 2 * math.Pi,
			Radius:   0.05 + 0.1*r.Float64(),
			Aperture: math.Pi / 3,
		}
	}
	if _, err := m.Add(adds); err != nil {
		t.Fatal(err)
	}
	for _, src := range []spatial.Source{m.Snapshot()} {
		batchChecker, err := NewCheckerFromSource(src, math.Pi/4)
		if err != nil {
			t.Fatal(err)
		}
		pointChecker, err := NewCheckerFromSource(src, math.Pi/4)
		if err != nil {
			t.Fatal(err)
		}
		pts := equivPoints(net, r, 180)
		var want RegionStats
		for _, p := range pts {
			want.observe(pointChecker.Report(p))
		}
		if got := batchChecker.SurveyBatch(pts); got != want {
			t.Fatalf("mutated source: SurveyBatch = %+v, want %+v", got, want)
		}

		multiBatch, err := NewMultiCheckerFromSource(src, []float64{math.Pi / 4, math.Pi / 3})
		if err != nil {
			t.Fatal(err)
		}
		multiPoint, err := NewMultiCheckerFromSource(src, []float64{math.Pi / 4, math.Pi / 3})
		if err != nil {
			t.Fatal(err)
		}
		multiBatch.EvaluateBatch(pts, func(i int, rep MultiReport) {
			want := multiPoint.Evaluate(pts[i])
			if rep.NumCovering != want.NumCovering || rep.MaxGap != want.MaxGap {
				t.Fatalf("mutated point %d: (%d, %v), want (%d, %v)",
					i, rep.NumCovering, rep.MaxGap, want.NumCovering, want.MaxGap)
			}
			for k := range want.PerTheta {
				if rep.PerTheta[k] != want.PerTheta[k] {
					t.Fatalf("mutated point %d θ[%d]: %+v, want %+v",
						i, k, rep.PerTheta[k], want.PerTheta[k])
				}
			}
		})
	}
}

// TestBatchKernelZeroAllocSteadyState proves the batch entry points
// allocate nothing once their scratch has grown.
func TestBatchKernelZeroAllocSteadyState(t *testing.T) {
	profile := wideSpanProfile(t)
	r := rng.New(12, 6)
	net, err := deploy.Uniform(geom.UnitTorus, profile, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := NewChecker(net, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiChecker(net, []float64{0.15 * math.Pi, math.Pi / 4, math.Pi / 2})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]geom.Vec{equivPoints(net, r, 128), equivPoints(net, r, 128)}
	var sink int
	for _, pts := range batches { // warm-up
		sink += checker.SurveyBatch(pts).Points
		multi.EvaluateBatch(pts, func(_ int, rep MultiReport) { sink += rep.NumCovering })
	}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		sink += checker.SurveyBatch(batches[i%2]).FullView
		i++
	}); allocs != 0 {
		t.Errorf("SurveyBatch: %.1f allocs per batch in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		multi.EvaluateBatch(batches[i%2], func(_ int, rep MultiReport) { sink += rep.NumCovering })
		i++
	}); allocs != 0 {
		t.Errorf("EvaluateBatch: %.1f allocs per batch in steady state, want 0", allocs)
	}
	_ = sink
}
