package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
)

// aeJournal opens a throwaway journal with compaction disabled.
func aeJournal(t *testing.T) *depjournal.Journal {
	t.Helper()
	j, err := depjournal.Open(filepath.Join(t.TempDir(), "deployments.jsonl"), depjournal.Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// aeRec builds an explicit-camera registration record.
func aeRec(id string, n int) depjournal.Record {
	cams := make([]depjournal.Camera, n)
	for i := range cams {
		cams[i] = depjournal.Camera{X: 0.1 * float64(i+1), Y: 0.2, Orient: float64(i), Radius: 0.1, Aperture: 0.7}
	}
	return depjournal.Record{ID: id, Cameras: cams}
}

// aeReaim is the first mutation of a fresh registration (version 1).
func aeReaim(id string, orient float64) []depjournal.Record {
	return []depjournal.Record{{ID: id, Op: depjournal.OpReaim, Reaim: []depjournal.ReaimOp{{I: 0, Orient: orient}}, BaseVersion: 1}}
}

// aeStore adapts a journal to AntiEntropyStore and records applies.
type aeStore struct {
	j       *depjournal.Journal
	applied []string
}

func (s *aeStore) Digests() map[string]depjournal.DigestInfo { return s.j.Digests() }
func (s *aeStore) Apply(id string, recs []depjournal.Record) error {
	s.applied = append(s.applied, id)
	return s.j.Apply(id, recs)
}

// servePeer exposes a journal over the two cluster-internal endpoints,
// exactly as a replica would.
func servePeer(t *testing.T, j *depjournal.Journal) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+DigestPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, j.Digests())
	})
	mux.HandleFunc("GET "+SnapshotPath, func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if _, err := j.SnapshotID(&buf, r.URL.Query().Get("id")); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		w.Write(buf.Bytes())
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestAntiEntropyRoundRepairs: a replica missing one deployment and
// behind on another pulls exactly those two from a peer and converges
// to the peer's digests; a second round is a no-op.
func TestAntiEntropyRoundRepairs(t *testing.T) {
	peer := aeJournal(t)
	for _, id := range []string{"aaaa", "bbbb", "cccc"} {
		if err := peer.Append(aeRec(id, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := peer.AppendMutations("bbbb", aeReaim("bbbb", 2.5)); err != nil {
		t.Fatal(err)
	}

	local := aeJournal(t)
	if err := local.Append(aeRec("aaaa", 3)); err != nil { // same aaaa copy: must not be pulled
		t.Fatal(err)
	}
	if err := local.Append(aeRec("bbbb", 3)); err != nil { // behind: missed the reaim
		t.Fatal(err)
	}
	store := &aeStore{j: local}

	srv := servePeer(t, peer)
	ae, err := NewAntiEntropy(AntiEntropyConfig{Peers: []string{srv.URL}, Local: store})
	if err != nil {
		t.Fatal(err)
	}
	if pulled := ae.Round(context.Background()).Pulled; pulled != 2 {
		t.Fatalf("round pulled %d, want 2 (bbbb behind, cccc missing)", pulled)
	}
	want := peer.Digests()
	got := local.Digests()
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("digest[%s] = %+v after repair, want %+v", id, got[id], w)
		}
	}
	if len(store.applied) != 2 {
		t.Fatalf("applied %v, want exactly [bbbb cccc]", store.applied)
	}
	if pulled := ae.Round(context.Background()).Pulled; pulled != 0 {
		t.Fatalf("converged round pulled %d, want 0", pulled)
	}
}

// TestAntiEntropyNeverPullsBackwards: a replica that is AHEAD of a
// stale peer must not pull — version gating makes repair monotonic.
func TestAntiEntropyNeverPullsBackwards(t *testing.T) {
	stale := aeJournal(t)
	if err := stale.Append(aeRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	local := aeJournal(t)
	if err := local.Append(aeRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	if err := local.AppendMutations("aaaa", aeReaim("aaaa", 1.5)); err != nil {
		t.Fatal(err)
	}
	before := local.Digests()

	srv := servePeer(t, stale)
	store := &aeStore{j: local}
	ae, err := NewAntiEntropy(AntiEntropyConfig{Peers: []string{srv.URL}, Local: store})
	if err != nil {
		t.Fatal(err)
	}
	if pulled := ae.Round(context.Background()).Pulled; pulled != 0 {
		t.Fatalf("pulled %d from a stale peer, want 0", pulled)
	}
	if got := local.Digests(); got["aaaa"] != before["aaaa"] {
		t.Fatal("round against a stale peer moved local state backwards")
	}
}

// staleDigestStore reports a digest map frozen below the journal's real
// versions — the TOCTOU window: a write lands after the reconciler
// captured its local digests but before the pull applies.
type staleDigestStore struct {
	aeStore
	stale map[string]depjournal.DigestInfo
}

func (s *staleDigestStore) Digests() map[string]depjournal.DigestInfo { return s.stale }

// TestAntiEntropyStaleRaceDoesNotRollBack: when the local copy advances
// between the round's digest snapshot and the pull's apply, the
// journal-level version re-check refuses the rollback; the round treats
// the lost race as benign (no pull counted, no error counted) and the
// newer local copy survives.
func TestAntiEntropyStaleRaceDoesNotRollBack(t *testing.T) {
	peer := aeJournal(t)
	if err := peer.Append(aeRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	if err := peer.AppendMutations("aaaa", aeReaim("aaaa", 2.5)); err != nil {
		t.Fatal(err)
	}

	// The local journal is already ahead of the peer (version 2 > 1),
	// but the store advertises the pre-race digest map in which it was
	// still behind (version 0), so Round decides to pull.
	local := aeJournal(t)
	if err := local.Append(aeRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	if err := local.AppendMutations("aaaa", aeReaim("aaaa", -1)); err != nil {
		t.Fatal(err)
	}
	before := local.Digests()
	store := &staleDigestStore{
		aeStore: aeStore{j: local},
		stale:   map[string]depjournal.DigestInfo{"aaaa": {Digest: before["aaaa"].Digest, Version: 0}},
	}

	srv := servePeer(t, peer)
	ae, err := NewAntiEntropy(AntiEntropyConfig{Peers: []string{srv.URL}, Local: store})
	if err != nil {
		t.Fatal(err)
	}
	if pulled := ae.Round(context.Background()).Pulled; pulled != 0 {
		t.Fatalf("lost race counted %d pulls, want 0", pulled)
	}
	if len(store.applied) != 1 {
		t.Fatalf("apply attempts %v, want exactly one refused attempt", store.applied)
	}
	if ae.errs.Value() != 0 {
		t.Fatalf("error counter %d for a benign lost race, want 0", ae.errs.Value())
	}
	if got := local.Digests(); got["aaaa"] != before["aaaa"] {
		t.Fatalf("stale pull rolled the local copy back: %+v, want %+v", got["aaaa"], before["aaaa"])
	}
}

// TestAntiEntropyFaultInjection: DigestFetch errors skip the peer for
// the round; AntiEntropyApply errors abandon the repair. Both count
// errors and both heal on the next clean round.
func TestAntiEntropyFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	peer := aeJournal(t)
	if err := peer.Append(aeRec("aaaa", 2)); err != nil {
		t.Fatal(err)
	}
	local := aeJournal(t)
	store := &aeStore{j: local}
	srv := servePeer(t, peer)
	ae, err := NewAntiEntropy(AntiEntropyConfig{Peers: []string{srv.URL}, Local: store})
	if err != nil {
		t.Fatal(err)
	}

	undo := faultinject.Set(faultinject.DigestFetch, faultinject.Error(errors.New("partitioned")))
	if pulled := ae.Round(context.Background()).Pulled; pulled != 0 {
		t.Fatalf("pulled %d through a failed digest fetch", pulled)
	}
	undo()

	undo = faultinject.Set(faultinject.AntiEntropyApply, faultinject.Error(errors.New("apply torn")))
	if pulled := ae.Round(context.Background()).Pulled; pulled != 0 {
		t.Fatalf("counted %d pulls when apply failed", pulled)
	}
	if len(store.applied) != 0 {
		t.Fatalf("apply ran despite the injected fault: %v", store.applied)
	}
	undo()

	if pulled := ae.Round(context.Background()).Pulled; pulled != 1 {
		t.Fatalf("healed round pulled %d, want 1", pulled)
	}
	if local.Digests()["aaaa"] != peer.Digests()["aaaa"] {
		t.Fatal("healed round did not converge")
	}
	if ae.errs.Value() != 2 {
		t.Fatalf("error counter %d, want 2", ae.errs.Value())
	}
}

// TestParseDigests pins the strict decode: a valid map round-trips,
// and each malformation is refused.
func TestParseDigests(t *testing.T) {
	valid := map[string]depjournal.DigestInfo{
		"aaaa": {Digest: "8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4", Version: 3},
	}
	body, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDigests(body)
	if err != nil {
		t.Fatalf("valid map refused: %v", err)
	}
	if got["aaaa"] != valid["aaaa"] {
		t.Fatalf("round-trip %+v, want %+v", got["aaaa"], valid["aaaa"])
	}
	if got, err := ParseDigests([]byte("{}")); err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v %v", got, err)
	}

	bad := map[string]string{
		"garbage":        "not json",
		"wrong shape":    `[1,2,3]`,
		"trailing data":  string(body) + "{}",
		"unknown field":  `{"aaaa":{"digest":"8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4","version":1,"extra":true}}`,
		"short digest":   `{"aaaa":{"digest":"abcd","version":1}}`,
		"non-hex digest": `{"aaaa":{"digest":"zf434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4","version":1}}`,
		"empty id":       `{"":{"digest":"8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4","version":1}}`,
	}
	for name, in := range bad {
		if _, err := ParseDigests([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// FuzzParseDigests: the digest parser faces bytes from the network; it
// must never panic, and anything it accepts must survive a
// marshal/reparse round trip.
func FuzzParseDigests(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"aaaa":{"digest":"8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4","version":3}}`))
	f.Add([]byte(`{"aaaa":{"digest":"abcd"}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseDigests(data)
		if err != nil {
			return
		}
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted map does not re-marshal: %v", err)
		}
		m2, err := ParseDigests(re)
		if err != nil {
			t.Fatalf("re-marshalled accepted map refused: %v", err)
		}
		if fmt.Sprint(m) != fmt.Sprint(m2) {
			t.Fatalf("round trip changed the map: %v vs %v", m, m2)
		}
	})
}
