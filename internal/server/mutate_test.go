package server

// Mutation-pipeline suite: drives PATCH /v1/deployments/{id} over the
// handler and pins the contracts the overlay refactor introduced — a
// patched deployment answers queries bit-identically to a fresh
// registration of the final camera list, validation failures leave the
// served state untouched, a journal write failure turns the patch into
// a 503 with the jittered Retry-After and applies nothing, and a
// restart on the same state dir replays the mutation journal to the
// same verdicts and version.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// patchBody marshals a patchRequest.
func patchBody(t *testing.T, req patchRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// inspect fetches a deployment's live description.
func inspect(t *testing.T, h http.Handler, id string) inspectResponse {
	t.Helper()
	rec := do(t, h, "GET", "/v1/deployments/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("inspect %s: %d %s", id, rec.Code, rec.Body.String())
	}
	var out inspectResponse
	decode(t, rec, &out)
	return out
}

// TestPatchQueryAgreesWithFreshRegistration is the service-level leg of
// the equivalence keystone: after a reaim+remove+add patch, queries
// against the patched deployment must return the exact per-point
// results a from-scratch registration of the final camera list returns.
func TestPatchQueryAgreesWithFreshRegistration(t *testing.T) {
	srv := mustNew(t, Config{})
	h := srv.Handler()
	net := testNetwork(t, 40, 5)

	var reg registerResponse
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, net))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)
	if reg.Version != 0 {
		t.Fatalf("fresh registration reports version %d, want 0", reg.Version)
	}

	added := depjournal.Camera{X: 0.62, Y: 0.38, Orient: -1.1, Radius: 0.17, Aperture: 1.3}
	patch := patchRequest{
		Reaim:  []reaimJSON{{Index: 3, Orient: 1.2}},
		Remove: []int{10, 2},
		Add:    []depjournal.Camera{added},
	}
	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, patchBody(t, patch))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
	var pr patchResponse
	decode(t, rec, &pr)
	// One journal record (and one version bump) per non-empty group.
	if pr.Version != 3 || pr.Cameras != net.Len()-2+1 ||
		pr.Reaimed != 1 || pr.Removed != 2 || pr.Added != 1 {
		t.Fatalf("patch response = %+v", pr)
	}
	if pr.Overlay == 0 {
		t.Fatal("patch left no overlay; the test would not exercise the overlay path")
	}

	ins := inspect(t, h, reg.ID)
	if ins.Version != pr.Version || ins.Cameras != pr.Cameras || ins.Overlay != pr.Overlay {
		t.Fatalf("inspect %+v disagrees with patch response %+v", ins, pr)
	}

	// Oracle: the same mutation applied to a plain camera slice, then
	// registered as its own deployment.
	cams := make([]sensor.Camera, net.Len())
	for i := range cams {
		cams[i] = net.Camera(i)
	}
	cams[3].Orient = 1.2
	cams = append(cams[:10], cams[11:]...) // remove 10 then 2, descending
	cams = append(cams[:2], cams[3:]...)
	oracle, err := sensor.NewNetwork(net.Torus(), append(cams, sensor.Camera{
		Pos: geom.V(added.X, added.Y), Orient: added.Orient,
		Radius: added.Radius, Aperture: added.Aperture,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var reg2 registerResponse
	rec = do(t, h, "POST", "/v1/deployments", camerasBody(t, oracle))
	if rec.Code != http.StatusCreated {
		t.Fatalf("oracle register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg2)

	q := []byte(`{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9},{"x":0.33,"y":0.81},{"x":0.92,"y":0.04}]}`)
	var got, want queryResponse
	decode(t, do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q), &got)
	decode(t, do(t, h, "POST", "/v1/deployments/"+reg2.ID+"/query", q), &want)
	if got.Version != pr.Version {
		t.Fatalf("query ran against version %d, want %d", got.Version, pr.Version)
	}
	gb, _ := json.Marshal(got.Results)
	wb, _ := json.Marshal(want.Results)
	if !bytes.Equal(gb, wb) {
		t.Errorf("patched deployment diverges from fresh registration:\n got: %s\nwant: %s", gb, wb)
	}
}

// TestPatchValidation pins the all-or-nothing 400 contract: every
// malformed patch is refused with a 400 (404 for unknown ids) and the
// deployment's version and camera count never move.
func TestPatchValidation(t *testing.T) {
	srv := mustNew(t, Config{MaxCameras: 12})
	h := srv.Handler()

	var reg registerResponse
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, 3)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)

	bad := []struct {
		name string
		body string
		code int
	}{
		{"empty patch", `{}`, http.StatusBadRequest},
		{"reaim out of range", `{"reaim":[{"index":10,"orient":1}]}`, http.StatusBadRequest},
		{"reaim negative", `{"reaim":[{"index":-1,"orient":1}]}`, http.StatusBadRequest},
		{"remove duplicate", `{"remove":[1,1]}`, http.StatusBadRequest},
		{"remove out of range", `{"remove":[10]}`, http.StatusBadRequest},
		{"invalid camera", `{"add":[{"x":0.5,"y":0.5,"radius":-1,"aperture":1}]}`, http.StatusBadRequest},
		{"over camera cap", `{"add":[{"x":0.1,"y":0.1,"radius":0.1,"aperture":1},{"x":0.2,"y":0.2,"radius":0.1,"aperture":1},{"x":0.3,"y":0.3,"radius":0.1,"aperture":1}]}`, http.StatusBadRequest},
		{"unknown field", `{"remove":[1],"explode":true}`, http.StatusBadRequest},
		{"journal reaim key", `{"reaim":[{"i":0,"orient":1}]}`, http.StatusBadRequest},
	}
	for _, tc := range bad {
		rec := do(t, h, "PATCH", "/v1/deployments/"+reg.ID, []byte(tc.body))
		if rec.Code != tc.code {
			t.Errorf("%s: answered %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body.String())
		}
	}
	if rec := do(t, h, "PATCH", "/v1/deployments/nope", []byte(`{"remove":[0]}`)); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id answered %d, want 404: %s", rec.Code, rec.Body.String())
	}

	ins := inspect(t, h, reg.ID)
	if ins.Version != 0 || ins.Cameras != 10 || ins.Overlay != 0 {
		t.Fatalf("refused patches moved state: %+v", ins)
	}
}

// TestPatchNotDurable503 wounds the journal during a patch: the patch
// must answer 503 with the jittered Retry-After header, apply nothing,
// and flip /readyz to degraded; after the fault clears the identical
// patch succeeds.
func TestPatchNotDurable503(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNew(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)

	var reg registerResponse
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 20, 7)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)

	body := patchBody(t, patchRequest{Remove: []int{4}})
	remove := faultinject.Set(faultinject.JournalWrite, faultinject.Error(errors.New("disk on fire")))
	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, body)
	remove()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("patch with failing journal answered %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var e errorResponse
	decode(t, rec, &e)
	if !strings.Contains(e.Error, "not durable") {
		t.Fatalf("503 body %q does not explain durability", e.Error)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("journal-503 carries no Retry-After header")
	}
	v, err := strconv.ParseFloat(ra, 64)
	if err != nil || v < 0.8 || v > 1.2 {
		t.Fatalf("Retry-After %q outside the 1s ±20%% jitter contract", ra)
	}

	// Persist-before-apply: the failed patch must not have touched the
	// served state.
	if ins := inspect(t, h, reg.ID); ins.Version != 0 || ins.Cameras != 20 {
		t.Fatalf("failed patch moved state: %+v", ins)
	}
	var ready struct {
		Status string `json:"status"`
	}
	decode(t, do(t, h, "GET", "/readyz", nil), &ready)
	if ready.Status != ReadyDegraded {
		t.Fatalf("readyz = %q after journal failure, want %q", ready.Status, ReadyDegraded)
	}

	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("patch after healing answered %d: %s", rec.Code, rec.Body.String())
	}
	var pr patchResponse
	decode(t, rec, &pr)
	if pr.Version != 1 || pr.Cameras != 19 {
		t.Fatalf("healed patch response = %+v", pr)
	}
	waitReadyz(t, h, ReadyOK)
}

// TestPatchRefusedWhenReplicatedHistoryOvertakesCache: an anti-entropy
// install can put a newer history in the journal while the cache still
// holds the older entry — its invalidation is not ordered against a
// PATCH's mutation lock. A PATCH stamped from that stale entry must be
// refused by the journal's version gate (503 + Retry-After, readiness
// untouched, journal unchanged) instead of appending a fabricated
// version on top of the installed history, and the client's retry must
// land on the installed state, bit-identical to a server that took the
// same history as PATCHes.
func TestPatchRefusedWhenReplicatedHistoryOvertakesCache(t *testing.T) {
	srv := mustNew(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	oracle := mustNew(t, Config{})
	body := camerasBody(t, testNetwork(t, 12, 4))
	var reg registerResponse
	for _, hh := range []http.Handler{h, oracle.Handler()} {
		rec := do(t, hh, "POST", "/v1/deployments", body)
		if rec.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
		}
		decode(t, rec, &reg)
	}
	if _, ok := srv.cache.Get(reg.ID); !ok {
		t.Fatal("test premise broken: registration not cached")
	}

	// A newer history (two mutations) lands in the journal behind the
	// cached entry's back; the oracle takes the same history as PATCHes.
	base, _ := srv.journal.Lookup(reg.ID)
	newer := []depjournal.Record{base,
		{ID: reg.ID, Op: depjournal.OpReaim, Reaim: []depjournal.ReaimOp{{I: 0, Orient: 1.25}}, BaseVersion: 1},
		{ID: reg.ID, Op: depjournal.OpRemove, Remove: []int{2}, BaseVersion: 2},
	}
	if err := srv.journal.Apply(reg.ID, newer); err != nil {
		t.Fatal(err)
	}
	for _, p := range []patchRequest{{Reaim: []reaimJSON{{Index: 0, Orient: 1.25}}}, {Remove: []int{2}}} {
		if rec := do(t, oracle.Handler(), "PATCH", "/v1/deployments/"+reg.ID, patchBody(t, p)); rec.Code != http.StatusOK {
			t.Fatalf("oracle patch: %d %s", rec.Code, rec.Body.String())
		}
	}
	digest, _ := srv.journal.Digest(reg.ID)
	size := srv.journal.Size()

	patch := patchBody(t, patchRequest{Reaim: []reaimJSON{{Index: 1, Orient: 0.5}}})
	rec := do(t, h, "PATCH", "/v1/deployments/"+reg.ID, patch)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("patch from the overtaken entry answered %d (Retry-After %q), want 503 with Retry-After: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	if got, _ := srv.journal.Digest(reg.ID); got != digest || srv.journal.Size() != size {
		t.Fatalf("refused patch changed the journal: %+v, want %+v", got, digest)
	}
	var ready struct {
		Status string `json:"status"`
	}
	decode(t, do(t, h, "GET", "/readyz", nil), &ready)
	if ready.Status != ReadyOK {
		t.Fatalf("readyz = %q after a version-gate refusal, want %q", ready.Status, ReadyOK)
	}

	// The retry revives from the journal and lands on version 3.
	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID, patch)
	if rec.Code != http.StatusOK {
		t.Fatalf("retried patch: %d %s", rec.Code, rec.Body.String())
	}
	var pr patchResponse
	decode(t, rec, &pr)
	if pr.Version != 3 {
		t.Fatalf("retried patch at version %d, want 3", pr.Version)
	}
	if rec := do(t, oracle.Handler(), "PATCH", "/v1/deployments/"+reg.ID, patch); rec.Code != http.StatusOK {
		t.Fatalf("oracle patch: %d %s", rec.Code, rec.Body.String())
	}
	q := []byte(`{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9},{"x":0.33,"y":0.81}]}`)
	got := do(t, h, "POST", "/v1/deployments/"+reg.ID+"/query", q).Body.Bytes()
	want := do(t, oracle.Handler(), "POST", "/v1/deployments/"+reg.ID+"/query", q).Body.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("state after the retried patch diverged from the oracle:\n%s\nvs\n%s", got, want)
	}
}

// TestPatchRestartBitIdentical is the kill -9 leg of the keystone: a
// server registers and patches a deployment, answers a query, and is
// abandoned with nothing but the journal's append-time fsyncs; a second
// server on the same state dir must replay the mutation records to the
// same version and answer the query byte-for-byte — and a
// re-registration of the ORIGINAL camera list must report the mutated
// live state, not resurrect the base. The patch adds a camera outside
// the torus with an unnormalized orientation and reaims to a negative
// one, so the live index's wrap and normalization must replay to the
// same camera bits.
func TestPatchRestartBitIdentical(t *testing.T) {
	state := t.TempDir()
	net := testNetwork(t, 40, 9)
	q := []byte(`{"thetasPi":[0.2,0.25,0.5],"points":[{"x":0.5,"y":0.5},{"x":0.1,"y":0.9}]}`)
	patch := patchBody(t, patchRequest{
		Reaim:  []reaimJSON{{Index: 0, Orient: 2.4}, {Index: 5, Orient: -5}},
		Remove: []int{17, 6, 33},
		Add: []depjournal.Camera{
			{X: 0.41, Y: 0.27, Orient: 0.3, Radius: 0.22, Aperture: 0.9},
			{X: 1.3, Y: 0.62, Orient: 4.0, Radius: 0.18, Aperture: 1.1},
		},
	})

	srv1 := mustNew(t, Config{StateDir: state})
	h1 := srv1.Handler()
	waitReadyz(t, h1, ReadyOK)
	var reg registerResponse
	rec := do(t, h1, "POST", "/v1/deployments", camerasBody(t, net))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)
	rec = do(t, h1, "PATCH", "/v1/deployments/"+reg.ID, patch)
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
	var pr patchResponse
	decode(t, rec, &pr)
	want := do(t, h1, "POST", "/v1/deployments/"+reg.ID+"/query", q).Body.Bytes()
	e1, ok := srv1.Cache().Get(reg.ID)
	if !ok {
		t.Fatal("patched deployment not cached")
	}
	wantCams := e1.Index.Cameras()
	// No Shutdown — only the per-append fsyncs survive a kill -9.

	srv2 := mustNew(t, Config{StateDir: state})
	h2 := srv2.Handler()
	waitReadyz(t, h2, ReadyOK)
	got := do(t, h2, "POST", "/v1/deployments/"+reg.ID+"/query", q)
	if got.Code != http.StatusOK {
		t.Fatalf("restarted server answered %d for patched id: %s", got.Code, got.Body.String())
	}
	if !bytes.Equal(got.Body.Bytes(), want) {
		t.Errorf("patched query diverged across restart:\n pre: %s\npost: %s", want, got.Body.Bytes())
	}
	if ins := inspect(t, h2, reg.ID); ins.Version != pr.Version || ins.Cameras != pr.Cameras {
		t.Fatalf("restart replayed to %+v, want version %d cameras %d", ins, pr.Version, pr.Cameras)
	}
	e2, ok := srv2.Cache().Get(reg.ID)
	if !ok {
		t.Fatal("replayed deployment not cached")
	}
	gotCams := e2.Index.Cameras()
	if len(gotCams) != len(wantCams) {
		t.Fatalf("replayed %d live cameras, want %d", len(gotCams), len(wantCams))
	}
	bits := func(c sensor.Camera) [6]uint64 {
		return [6]uint64{math.Float64bits(c.Pos.X), math.Float64bits(c.Pos.Y), math.Float64bits(c.Orient),
			math.Float64bits(c.Radius), math.Float64bits(c.Aperture), uint64(c.Group)}
	}
	for i := range wantCams {
		if bits(gotCams[i]) != bits(wantCams[i]) {
			t.Errorf("live camera %d replayed as %+v, want bit-identical %+v", i, gotCams[i], wantCams[i])
		}
	}

	// Re-registering the base camera list must answer with the LIVE
	// (mutated) deployment, not rebuild the pre-patch index.
	rec = do(t, h2, "POST", "/v1/deployments", camerasBody(t, net))
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		t.Fatalf("re-register: %d %s", rec.Code, rec.Body.String())
	}
	var reg2 registerResponse
	decode(t, rec, &reg2)
	if reg2.ID != reg.ID || reg2.Version != pr.Version || reg2.Cameras != pr.Cameras {
		t.Fatalf("re-registration resurrected stale state: %+v, want version %d cameras %d",
			reg2, pr.Version, pr.Cameras)
	}
	if err := srv2.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestPatchMetrics checks the churn telemetry: mutations, rebuilds, and
// the overlay gauge all move through the PATCH path.
func TestPatchMetrics(t *testing.T) {
	srv := mustNew(t, Config{RebuildFraction: -1})
	h := srv.Handler()

	var reg registerResponse
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 20, 11)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &reg)
	rec = do(t, h, "PATCH", "/v1/deployments/"+reg.ID,
		patchBody(t, patchRequest{Add: []depjournal.Camera{{X: 0.5, Y: 0.5, Radius: 0.1, Aperture: 1}}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
	if line := metricLine(t, h, "fvcd_mutations_total"); line != "fvcd_mutations_total 1" {
		t.Errorf("mutation counter = %q, want fvcd_mutations_total 1", line)
	}
	if line := metricLine(t, h, "fvcd_overlay_cameras"); line != "fvcd_overlay_cameras 1" {
		t.Errorf("overlay gauge = %q, want fvcd_overlay_cameras 1", line)
	}
	if line := metricLine(t, h, "fvcd_rebuilds_total"); line != "fvcd_rebuilds_total 0" {
		t.Errorf("rebuild counter = %q, want fvcd_rebuilds_total 0 with rebuilds disabled", line)
	}
}
