package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fullview/internal/core"
	"fullview/internal/geom"
	"fullview/internal/jobs"
	"fullview/internal/rng"
	"fullview/internal/spatial"
	"fullview/internal/sweep"
)

// FuzzQueryEncoding pins the hand-appended /query body to
// encoding/json: for any finite point, gap and angle and any verdicts,
// the appended head, result object and tail equal json.Encoder's
// rendering of the wire structs byte for byte.
func FuzzQueryEncoding(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{negZero, 5e-324, 1e-7, 1e21, 2 * math.Pi, 0.25, 1e-6, 123456789.125} {
		f.Add(v, 0.5, v, v, true, false, true, 3)
		f.Add(0.5, v, 2*math.Pi, 0.25, false, true, false, 0)
	}
	f.Fuzz(func(t *testing.T, x, y, maxGap, thetaPi float64, fullView, necessary, sufficient bool, numCovering int) {
		for _, v := range []float64{x, y, maxGap, thetaPi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("encoding/json refuses non-finite numbers")
			}
		}
		thetasPi := []float64{thetaPi, 0.25}
		rep := core.MultiReport{
			NumCovering: numCovering,
			MaxGap:      maxGap,
			PerTheta: []core.ThetaReport{
				{FullView: fullView, Necessary: necessary, Sufficient: sufficient},
				{FullView: !fullView, Necessary: sufficient, Sufficient: necessary},
			},
		}
		want := pointResultJSON{
			Point:       pointJSON{X: x, Y: y},
			NumCovering: numCovering,
			MaxGap:      maxGap,
		}
		for j, v := range rep.PerTheta {
			want.PerTheta = append(want.PerTheta, thetaVerdictJSON{
				ThetaPi: thetasPi[j], FullView: v.FullView, Necessary: v.Necessary, Sufficient: v.Sufficient,
			})
		}
		got := appendPointResult(nil, want.Point, rep, appendThetaHeads(thetasPi))
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("appendPointResult:\n got: %s\nwant: %s", got, wantBytes)
		}

		const id = "0123456789abcdef0123456789abcdef"
		version := uint64(numCovering)
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(queryResponse{ID: id, Version: version, Results: []pointResultJSON{want, want}}); err != nil {
			t.Fatal(err)
		}
		full := appendQueryHead(nil, id, version)
		full = append(append(append(full, got...), ','), got...)
		full = append(full, queryTail...)
		if !bytes.Equal(full, body.Bytes()) {
			t.Fatalf("query body:\n got: %s\nwant: %s", full, body.Bytes())
		}
	})
}

// queryFixture is a MultiChecker over a 300-camera deployment with n
// random query points.
func queryFixture(t *testing.T, n int) (*core.MultiChecker, []pointJSON, []float64) {
	t.Helper()
	thetasPi := []float64{0.2, 0.25, 0.3, 0.5}
	thetas := make([]float64, len(thetasPi))
	for i, tp := range thetasPi {
		thetas[i] = tp * math.Pi
	}
	mc, err := core.NewMultiChecker(testNetwork(t, 300, 3), thetas)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5, 0)
	points := make([]pointJSON, n)
	for i := range points {
		points[i] = pointJSON{X: r.Float64(), Y: r.Float64()}
	}
	return mc, points, thetasPi
}

// TestQueryEvaluateAllocs pins the query evaluate+encode path's
// allocations to a per-request constant: a 1024-point batch allocates
// no more than a 256-point one plus a few (nothing per point), and a
// batch of at most one sweep batch allocates the same at any worker cap
// (it runs inline: no goroutine, no Clone).
func TestQueryEvaluateAllocs(t *testing.T) {
	allocs := func(n, workers int) float64 {
		mc, points, thetasPi := queryFixture(t, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := evaluateQuery(context.Background(), mc, points, thetasPi, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(sweep.BatchSize, 1)
	if large := allocs(4*sweep.BatchSize, 1); large > small+4 {
		t.Errorf("1024-point batch allocates %.0f, 256-point %.0f: more than a constant apart", large, small)
	}
	if inline := allocs(sweep.BatchSize, 8); inline != small {
		t.Errorf("256-point batch with 8 workers allowed allocates %.0f, with 1 %.0f: want equal (inline)", inline, small)
	}
}

// panickingSource is a spatial.Source whose gathers panic.
type panickingSource struct{ spatial.Source }

func (panickingSource) AppendViewedDirections([]float64, geom.Vec) []float64 {
	panic("injected gather panic")
}

func (panickingSource) AppendGridDirections(*spatial.BatchScratch, int, int, int) ([]float64, []int32) {
	panic("injected gather panic")
}

// TestQueryKernelPanicContained pins that a panicking kernel on a
// sweep worker surfaces as a *sweep.PanicError, not a process crash.
func TestQueryKernelPanicContained(t *testing.T) {
	mc, points, thetasPi := queryFixture(t, 3*sweep.BatchSize)
	bad, err := core.NewMultiCheckerFromSource(panickingSource{mc.Index()}, mc.Thetas())
	if err != nil {
		t.Fatal(err)
	}
	_, err = evaluateQuery(context.Background(), bad, points, thetasPi, 2)
	var perr *sweep.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("evaluateQuery error = %v, want *sweep.PanicError", err)
	}
}

// TestSurveyKernelPanicContained pins panic containment on the
// survey path: a kernel panic in the survey runner answers 500 with the
// panic value and no goroutine stack, and counts in fvcd_panics_total.
func TestSurveyKernelPanicContained(t *testing.T) {
	srv := mustNewStopped(t, Config{SurveyWorkers: 2})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	src := panickingSource{spatial.NewIndex(testNetwork(t, 300, 3))}
	spec, err := srv.surveySpec("panicky", src, jobs.KindSurvey, []float64{0.25}, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := srv.surveyRunner(src, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(context.Background(), 0, spec.Grid)
	var perr *sweep.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("survey runner error = %v, want *sweep.PanicError", err)
	}

	before := metricValue(t, h, "fvcd_panics_total")
	rec := httptest.NewRecorder()
	srv.writeSweepError(rec, "survey", err)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("survey kernel panic answered %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var e errorResponse
	decode(t, rec, &e)
	if !strings.Contains(e.Error, "injected gather panic") || strings.Contains(rec.Body.String(), "goroutine ") {
		t.Fatalf("500 body = %q, want the panic value and no stack", rec.Body.String())
	}
	if got := metricValue(t, h, "fvcd_panics_total"); got != before+1 {
		t.Fatalf("fvcd_panics_total went %v → %v, want +1", before, got)
	}
}

// TestTinyThetaIs400 pins the sector-count cap at the service: a θ of
// 1e-10·π is a 400 on /query, /survey and job submission (it used to
// kill the daemon with one partition allocation of 160 GB), and the
// server keeps answering afterwards.
func TestTinyThetaIs400(t *testing.T) {
	srv := mustNewStopped(t, Config{})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 60, 2))
	for _, tc := range []struct{ target, body string }{
		{"/v1/deployments/" + id + "/query", `{"thetasPi":[0.25,1e-10],"points":[{"x":0.5,"y":0.5}]}`},
		{"/v1/deployments/" + id + "/survey", `{"thetaPi":1e-10,"grid":4}`},
		{"/v1/jobs", `{"kind":"sweep","deployment":"` + id + `","thetasPi":[0.25,1e-10],"grid":4}`},
	} {
		rec := do(t, h, "POST", tc.target, []byte(tc.body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with θ 1e-10·π answered %d, want 400: %s", tc.target, rec.Code, rec.Body.String())
		}
	}
	rec := do(t, h, "POST", "/v1/deployments/"+id+"/query", []byte(`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("query after the refusals answered %d: %s", rec.Code, rec.Body.String())
	}
}
