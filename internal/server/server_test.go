package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fullview/internal/core"
	"fullview/internal/depjournal"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// testProfile is the heterogeneous profile every test deployment uses.
const testProfile = "0.3:0.2:0.4,0.7:0.1:0.5"

// mustNew builds a Server, failing the test on a config error.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testNetwork deploys the reference heterogeneous network.
func testNetwork(t *testing.T, n int, seed uint64) *sensor.Network {
	t.Helper()
	profile, err := sensor.ParseProfile(testProfile)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, n, rng.New(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// camerasBody renders a network as an explicit-camera registration.
func camerasBody(t *testing.T, net *sensor.Network) []byte {
	t.Helper()
	cams := make([]depjournal.Camera, net.Len())
	for i := 0; i < net.Len(); i++ {
		c := net.Camera(i)
		cams[i] = depjournal.Camera{
			X: c.Pos.X, Y: c.Pos.Y, Orient: c.Orient,
			Radius: c.Radius, Aperture: c.Aperture, Group: c.Group,
		}
	}
	body, err := json.Marshal(registerRequest{Cameras: cams})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends a JSON POST and decodes the JSON response into out,
// returning the status code.
func post(t *testing.T, client *http.Client, url string, body []byte, out any) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// TestRegisterQuerySurveyRoundTrip drives the full service life cycle
// over real HTTP and checks the query verdicts bit-identical against
// core.MultiChecker run in-process on the same network.
func TestRegisterQuerySurveyRoundTrip(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	net := testNetwork(t, 200, 7)

	// Register.
	var reg registerResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments", camerasBody(t, net), &reg); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if reg.Cached || reg.Cameras != 200 {
		t.Fatalf("register response = %+v", reg)
	}

	// Query a point batch across a θ-list.
	thetasPi := []float64{0.2, 0.25, 0.5}
	points := []pointJSON{
		{0.5, 0.5}, {0.1, 0.9}, {0.25, 0.75}, {0.99, 0.01}, {0.333, 0.667},
	}
	body, _ := json.Marshal(queryRequest{ThetasPi: thetasPi, Points: points})
	var q queryResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+reg.ID+"/query", body, &q); code != http.StatusOK {
		t.Fatalf("query status = %d, want 200", code)
	}
	if len(q.Results) != len(points) {
		t.Fatalf("got %d results, want %d", len(q.Results), len(points))
	}

	// In-process truth on the same network.
	thetas := make([]float64, len(thetasPi))
	for i, tp := range thetasPi {
		thetas[i] = tp * math.Pi
	}
	mc, err := core.NewMultiChecker(net, thetas)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		want := mc.Evaluate(geom.V(p.X, p.Y))
		got := q.Results[i]
		if got.NumCovering != want.NumCovering {
			t.Errorf("point %d: NumCovering = %d, want %d", i, got.NumCovering, want.NumCovering)
		}
		if got.MaxGap != want.MaxGap {
			t.Errorf("point %d: MaxGap = %v, want bit-identical %v", i, got.MaxGap, want.MaxGap)
		}
		for j, v := range want.PerTheta {
			g := got.PerTheta[j]
			if g.FullView != v.FullView || g.Necessary != v.Necessary || g.Sufficient != v.Sufficient {
				t.Errorf("point %d θ[%d]: got %+v, want %+v", i, j, g, v)
			}
		}
	}

	// Survey a 32×32 grid and compare against the sequential library sweep.
	body, _ = json.Marshal(surveyRequest{ThetaPi: 0.25, Grid: 32})
	var sv surveyResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+reg.ID+"/survey", body, &sv); code != http.StatusOK {
		t.Fatalf("survey status = %d, want 200", code)
	}
	checker, err := core.NewChecker(net, 0.25*math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := deploy.GridPoints(net.Torus(), 32)
	if err != nil {
		t.Fatal(err)
	}
	want := checker.SurveyRegion(grid)
	if sv.Points != want.Points || sv.FullView != want.FullView ||
		sv.Necessary != want.Necessary || sv.Sufficient != want.Sufficient ||
		sv.MinCovering != want.MinCovering || sv.MeanCovering != want.MeanCovering {
		t.Errorf("survey = %+v, want stats %+v", sv, want)
	}
	if sv.FullViewFraction != want.FullViewFraction() {
		t.Errorf("FullViewFraction = %v, want %v", sv.FullViewFraction, want.FullViewFraction())
	}

	// Re-registering the identical network must be a cache hit with the
	// same id, visible in /metrics.
	var reg2 registerResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments", camerasBody(t, net), &reg2); code != http.StatusOK {
		t.Fatalf("re-register status = %d, want 200", code)
	}
	if !reg2.Cached || reg2.ID != reg.ID {
		t.Fatalf("re-register = %+v, want cached hit on %s", reg2, reg.ID)
	}
	metrics := getBody(t, ts.Client(), ts.URL+"/metrics")
	// One miss (first registration built the index) and three hits: the
	// query and survey lookups plus the second registration.
	for _, want := range []string{
		"fvcd_depcache_hits_total 3",
		"fvcd_depcache_misses_total 1",
		"fvcd_points_evaluated_total",
		`fvcd_requests_total{code="200",route="query"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Inspect and healthz.
	resp, err := ts.Client().Get(ts.URL + "/v1/deployments/" + reg.ID)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("inspect: %v status %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	if !strings.Contains(getBody(t, ts.Client(), ts.URL+"/healthz"), `"status":"ok"`) {
		t.Error("healthz not ok")
	}
}

func getBody(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRegisterRecipe checks the profile+seed registration form: the
// deterministic recipe lands on the same fingerprint both times.
func TestRegisterRecipe(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(registerRequest{Profile: testProfile, N: 120, Seed: 5})
	var first, second registerResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments", body, &first); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments", body, &second); code != http.StatusOK {
		t.Fatalf("re-register status = %d, want 200", code)
	}
	if first.ID != second.ID || !second.Cached {
		t.Fatalf("recipe ids %s vs %s (cached=%v), want identical cache hit", first.ID, second.ID, second.Cached)
	}

	// The recipe must equal the library deployment with the same seed.
	net := testNetwork(t, 120, 5)
	q, _ := json.Marshal(queryRequest{ThetasPi: []float64{0.25}, Points: []pointJSON{{0.4, 0.6}}})
	var resp queryResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+first.ID+"/query", q, &resp); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	mc, err := core.NewMultiChecker(net, []float64{0.25 * math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	want := mc.Evaluate(geom.V(0.4, 0.6))
	if resp.Results[0].NumCovering != want.NumCovering || resp.Results[0].MaxGap != want.MaxGap {
		t.Errorf("recipe deployment differs from library deployment: got %+v, want %+v",
			resp.Results[0], want)
	}
}

// TestErrorResponses covers the 4xx surface: malformed JSON, unknown
// fields, invalid parameters, and unknown deployment ids.
func TestErrorResponses(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	reg := func() string {
		var r registerResponse
		post(t, client, ts.URL+"/v1/deployments", camerasBody(t, testNetwork(t, 30, 1)), &r)
		return r.ID
	}()

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"malformed JSON", "/v1/deployments", `{"cameras": [`, http.StatusBadRequest},
		{"unknown field", "/v1/deployments", `{"camerass": []}`, http.StatusBadRequest},
		{"empty registration", "/v1/deployments", `{}`, http.StatusBadRequest},
		{"both forms", "/v1/deployments",
			`{"cameras":[{"x":0,"y":0,"orient":0,"radius":0.1,"aperture":1}],"profile":"1:0.1:0.5","n":5}`,
			http.StatusBadRequest},
		{"journal-only folded", "/v1/deployments",
			`{"profile":"1:0.1:0.5","n":5,"folded":true}`, http.StatusBadRequest},
		{"journal-only id", "/v1/deployments",
			`{"id":"deadbeef","profile":"1:0.1:0.5","n":5}`, http.StatusBadRequest},
		{"bad camera", "/v1/deployments",
			`{"cameras":[{"x":0,"y":0,"orient":0,"radius":-1,"aperture":1}]}`, http.StatusBadRequest},
		{"unknown deployment query", "/v1/deployments/deadbeef/query",
			`{"thetasPi":[0.25],"points":[{"x":0.5,"y":0.5}]}`, http.StatusNotFound},
		{"unknown deployment survey", "/v1/deployments/deadbeef/survey",
			`{"thetaPi":0.25}`, http.StatusNotFound},
		{"query without thetas", "/v1/deployments/" + reg + "/query",
			`{"thetasPi":[],"points":[{"x":0.5,"y":0.5}]}`, http.StatusBadRequest},
		{"query without points", "/v1/deployments/" + reg + "/query",
			`{"thetasPi":[0.25],"points":[]}`, http.StatusBadRequest},
		{"theta out of range", "/v1/deployments/" + reg + "/query",
			`{"thetasPi":[1.5],"points":[{"x":0.5,"y":0.5}]}`, http.StatusBadRequest},
		{"survey theta out of range", "/v1/deployments/" + reg + "/survey",
			`{"thetaPi":0}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var e errorResponse
		if code := post(t, client, ts.URL+tc.url, []byte(tc.body), &e); code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, code, tc.want)
		} else if e.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
}

// TestBatchCaps checks the request-size guards.
func TestBatchCaps(t *testing.T) {
	srv := mustNew(t, Config{MaxBatchPoints: 3, MaxThetas: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var reg registerResponse
	post(t, ts.Client(), ts.URL+"/v1/deployments", camerasBody(t, testNetwork(t, 30, 1)), &reg)

	tooManyPoints, _ := json.Marshal(queryRequest{
		ThetasPi: []float64{0.25},
		Points:   []pointJSON{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
	})
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+reg.ID+"/query", tooManyPoints, nil); code != http.StatusBadRequest {
		t.Errorf("over-cap points: status %d, want 400", code)
	}
	tooManyThetas, _ := json.Marshal(queryRequest{
		ThetasPi: []float64{0.2, 0.25, 0.5},
		Points:   []pointJSON{{0, 0}},
	})
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+reg.ID+"/query", tooManyThetas, nil); code != http.StatusBadRequest {
		t.Errorf("over-cap thetas: status %d, want 400", code)
	}
	// A hostile grid side must be rejected by arithmetic before the k×k
	// point slice is allocated — {"grid":100000} is ~160 GB of points.
	hugeGrid, _ := json.Marshal(surveyRequest{ThetaPi: 0.25, Grid: 100_000})
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+reg.ID+"/survey", hugeGrid, nil); code != http.StatusBadRequest {
		t.Errorf("over-cap survey grid: status %d, want 400", code)
	}
}

// TestAdmissionSaturation fills the single admission slot with a
// blocked request and asserts the next one is rejected with 429 after
// the queue timeout.
func TestAdmissionSaturation(t *testing.T) {
	srv := mustNew(t, Config{MaxInFlight: 1, QueueTimeout: 5 * time.Millisecond})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookAdmitted = func(route string, _ *http.Request) {
		if route == "register" {
			close(entered)
			<-release
		}
	}

	first := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/deployments", bytes.NewReader(camerasBody(t, testNetwork(t, 20, 1))))
		srv.Handler().ServeHTTP(rec, req)
		first <- rec.Code
	}()
	<-entered

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/deployments/xyz/query", strings.NewReader(`{}`))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	close(release)
	if code := <-first; code != http.StatusCreated {
		t.Fatalf("blocked request finished with %d, want 201", code)
	}

	// The rejection must be visible in the metrics.
	mrec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), `fvcd_requests_total{code="429",route="query"} 1`) {
		t.Errorf("metrics missing the 429:\n%s", mrec.Body.String())
	}
}

// TestSurveyCancellation cancels a survey request's context right after
// admission and asserts the sweep aborts with status 499 instead of
// completing.
func TestSurveyCancellation(t *testing.T) {
	srv := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	srv.testHookAdmitted = func(route string, _ *http.Request) {
		if route == "survey" {
			cancel() // the client walks away while the request is in flight
		}
	}

	var reg registerResponse
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/deployments", bytes.NewReader(camerasBody(t, testNetwork(t, 100, 3))))
	srv.Handler().ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/v1/deployments/"+reg.ID+"/survey",
		strings.NewReader(`{"thetaPi":0.25,"grid":100}`)).WithContext(ctx)
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled survey: status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}

	mrec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), `fvcd_requests_total{code="499",route="survey"} 1`) {
		t.Errorf("metrics missing the 499:\n%s", mrec.Body.String())
	}
}

// TestGracefulDrain starts a real listener, parks a request in flight,
// calls Shutdown, and asserts the in-flight request completes with 200
// while Serve and Shutdown both return cleanly.
func TestGracefulDrain(t *testing.T) {
	srv := mustNew(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookAdmitted = func(route string, _ *http.Request) {
		if route == "register" {
			close(entered)
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/deployments", "application/json",
			bytes.NewReader(camerasBody(t, testNetwork(t, 20, 1))))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Give Shutdown a moment to close the listener, then prove new
	// connections are refused while the old request still drains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break // listener closed: drain has begun
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting long after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if code := <-inflight; code != http.StatusCreated {
		t.Fatalf("in-flight request finished with %d, want 201 (drain must not cut it off)", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
	}
}

// TestConcurrentQueries hammers one server from many goroutines —
// mixed registrations and queries — mainly as race-detector fodder for
// the cache, metrics, and admission paths.
func TestConcurrentQueries(t *testing.T) {
	srv := mustNew(t, Config{CacheSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nets := []*sensor.Network{testNetwork(t, 40, 1), testNetwork(t, 40, 2), testNetwork(t, 40, 3)}
	bodies := make([][]byte, len(nets))
	ids := make([]string, len(nets))
	for i, n := range nets {
		bodies[i] = camerasBody(t, n)
		var r registerResponse
		post(t, ts.Client(), ts.URL+"/v1/deployments", bodies[i], &r)
		ids[i] = r.ID
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := (w + i) % len(nets)
				// Re-register (hit or rebuild after eviction)…
				if code := post(t, ts.Client(), ts.URL+"/v1/deployments", bodies[k], nil); code != http.StatusOK && code != http.StatusCreated {
					t.Errorf("re-register: status %d", code)
					return
				}
				// …then query it.
				q, _ := json.Marshal(queryRequest{
					ThetasPi: []float64{0.25, 0.5},
					Points:   []pointJSON{{float64(i) / 25, float64(w) / 8}},
				})
				code := post(t, ts.Client(), ts.URL+"/v1/deployments/"+ids[k]+"/query", q, nil)
				if code != http.StatusOK && code != http.StatusNotFound { // NotFound: evicted by a peer
					t.Errorf("query: status %d", code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if srv.Cache().Len() > 2 {
		t.Fatalf("cache over cap: %d", srv.Cache().Len())
	}
}

// TestMaxBodyBytes checks the request-body cap.
func TestMaxBodyBytes(t *testing.T) {
	srv := mustNew(t, Config{MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := fmt.Sprintf(`{"profile":%q,"n":10,"seed":1,"deploy":"uniform","torus":1}`, testProfile)
	if code := post(t, ts.Client(), ts.URL+"/v1/deployments", []byte(big), nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", code)
	}
}
