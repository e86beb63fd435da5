package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"
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
