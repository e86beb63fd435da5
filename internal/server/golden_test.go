package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"fullview/internal/rng"
)

// goldenJournal is the deployment journal the steps in
// TestJournalGoldenBytes leave behind, as written by an earlier build
// of the server. The journal and the mirror stream carry the same
// records, so a byte change here is a wire-format change for restarts
// and for replicas running the earlier build.
const goldenJournal = "testdata/journal_golden.jsonl"

// TestJournalGoldenBytes pins the server's journal write path byte for
// byte: an explicit-camera registration (torus, group), a recipe
// registration, and a reaim+remove+add PATCH of the recipe deployment.
func TestJournalGoldenBytes(t *testing.T) {
	state := t.TempDir()
	srv := mustNew(t, Config{StateDir: state})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)

	rec := do(t, h, "POST", "/v1/deployments", []byte(`{"torus":1.5,"cameras":[`+
		`{"x":0.1,"y":0.2,"orient":1.25,"radius":0.3,"aperture":0.9,"group":2},`+
		`{"x":1.2,"y":0.7,"orient":-0.5,"radius":0.15,"aperture":1.3},`+
		`{"x":0.45,"y":1.05,"orient":3,"radius":0.2,"aperture":0.6,"group":1}]}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register cameras: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, h, "POST", "/v1/deployments",
		[]byte(`{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":30,"deploy":"uniform","seed":7}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register recipe: %d %s", rec.Code, rec.Body.String())
	}
	var reg registerResponse
	decode(t, rec, &reg)
	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, []byte(`{`+
		`"reaim":[{"index":3,"orient":-2.5},{"index":0,"orient":0.1}],`+
		`"remove":[5,2],`+
		`"add":[{"x":0.33,"y":0.66,"orient":1.1,"radius":0.12,"aperture":1,"group":1}]}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(state, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal bytes diverged from %s:\n got: %s\nwant: %s", goldenJournal, got, want)
	}
}

// Golden /query bodies for TestQueryWorkerCountInvariance, gzipped, as
// written by the serial query handler that preceded the sweep-engine
// path: one against a pristine deployment, one against the same
// deployment with a patch held in its overlay.
const (
	goldenQueryPristine = "testdata/query_golden_pristine.json.gz"
	goldenQueryOverlay  = "testdata/query_golden_overlay.json.gz"
)

// invarianceQueryBody is a 1031-point, 3-θ /query body: 1031 is not a
// multiple of the sweep batch size, so every worker count splits it
// into uneven chunks with a ragged last batch. The first points put
// the encoder's exponent-form and signed-zero cases on the wire.
func invarianceQueryBody(t *testing.T) []byte {
	t.Helper()
	r := rng.New(31, 0)
	points := []pointJSON{{0, 0}, {math.Copysign(0, -1), 0.5}, {1e-7, 5e-324}, {0.25, 1e-6}}
	for len(points) < 1031 {
		points = append(points, pointJSON{r.Float64(), r.Float64()})
	}
	body, err := json.Marshal(queryRequest{ThetasPi: []float64{0.2, 0.25, 0.5}, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// invarianceQuery registers the invariance deployment on a server with
// the given worker count, optionally patches it so the answer reads
// through a non-empty overlay, and returns the /query body.
func invarianceQuery(t *testing.T, workers int, overlay bool) []byte {
	t.Helper()
	srv := mustNew(t, Config{SurveyWorkers: workers, RebuildFraction: -1})
	h := srv.Handler()
	rec := do(t, h, "POST", "/v1/deployments", []byte(`{"profile":"`+testProfile+`","n":400,"seed":11}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	var reg registerResponse
	decode(t, rec, &reg)
	if overlay {
		rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, []byte(`{`+
			`"reaim":[{"index":7,"orient":2.5},{"index":120,"orient":-0.4}],`+
			`"remove":[3,250],`+
			`"add":[{"x":0.41,"y":0.52,"orient":0.3,"radius":0.2,"aperture":1.2},`+
			`{"x":0.9,"y":0.05,"orient":-2,"radius":0.1,"aperture":1.5,"group":1}]}`))
		if rec.Code != http.StatusOK {
			t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
		}
		var pr patchResponse
		decode(t, rec, &pr)
		if pr.Overlay == 0 {
			t.Fatal("patch left no overlay; the test would not exercise the overlay path")
		}
	}
	rec = do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", invarianceQueryBody(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("query Content-Type = %q, want application/json", ct)
	}
	return rec.Body.Bytes()
}

// readGzip returns the decompressed contents of a gzipped testdata file.
func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestQueryWorkerCountInvariance pins the /query body byte for byte at
// every worker count, on a pristine deployment and through an overlay,
// against the golden bodies of the serial handler.
func TestQueryWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		overlay bool
		golden  string
	}{
		{"pristine", false, goldenQueryPristine},
		{"overlay", true, goldenQueryOverlay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := readGzip(t, tc.golden)
			for _, workers := range []int{1, 2, 3, 7} {
				got := invarianceQuery(t, workers, tc.overlay)
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Errorf("workers=%d: body diverges from %s at byte %d (len %d, want %d):\n got: %.200s\nwant: %.200s",
						workers, tc.golden, i, len(got), len(want), got[i:], want[min(i, len(want)):])
				}
			}
		})
	}
}
