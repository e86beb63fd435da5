package depjournal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
)

// TestDigestInvariantAcrossHistories pins the anti-entropy foundation:
// a deployment's digest is a function of its logical state, not of how
// the journal file reached it. A live journal (registration + mutation
// appends), a compacted one (mutations folded), and one warmed from
// per-id snapshots all digest identically.
func TestDigestInvariantAcrossHistories(t *testing.T) {
	j, _ := snapshotJournal(t)
	before := j.Digests()
	if len(before) != 3 {
		t.Fatalf("digests for %d deployments, want 3", len(before))
	}
	for id, d := range before {
		if len(d.Digest) != 64 {
			t.Fatalf("digest[%s] = %q, want 64 hex chars", id, d.Digest)
		}
	}

	// Snapshot-warmed journal (what a warmed peer holds).
	peer := warmFrom(t, j, snapshotIDs...)
	if got := peer.Digests(); !digestsEqual(got, before) {
		t.Fatalf("snapshot-warmed digests %v, want %v", got, before)
	}

	// Compaction folds mutations in place; the digest must not move.
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := j.Digests(); !digestsEqual(got, before) {
		t.Fatalf("post-compaction digests %v, want %v", got, before)
	}

	// A new mutation must move exactly its deployment's digest and bump
	// its version by one.
	if err := j.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: -1}}, BaseVersion: 3},
	}); err != nil {
		t.Fatal(err)
	}
	after := j.Digests()
	if after["aaaa"].Digest == before["aaaa"].Digest {
		t.Fatal("mutation did not change the deployment's digest")
	}
	if after["aaaa"].Version != before["aaaa"].Version+1 {
		t.Fatalf("version %d after one mutation, want %d", after["aaaa"].Version, before["aaaa"].Version+1)
	}
	for _, id := range []string{"bbbb", "cccc"} {
		if after[id] != before[id] {
			t.Fatalf("mutation of aaaa moved digest[%s]", id)
		}
	}
}

// versionOf reads a deployment's logical version the way a peer sees
// it: through its digest.
func versionOf(j *Journal, id string) (uint64, bool) {
	d, ok := j.Digest(id)
	return d.Version, ok
}

func digestsEqual(a, b map[string]DigestInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestDigestIsHashOfSnapshotID pins the wire contract between the
// digest and the per-id snapshot: the digest is exactly the sha256 of
// the record lines SnapshotID streams (header excluded), so a replica
// that installs a fetched per-id snapshot lands on the peer's digest
// by construction.
func TestDigestIsHashOfSnapshotID(t *testing.T) {
	j, _ := snapshotJournal(t)
	for _, id := range []string{"aaaa", "bbbb", "cccc"} {
		var buf bytes.Buffer
		n, err := j.SnapshotID(&buf, id)
		if err != nil {
			t.Fatalf("SnapshotID(%s): %v", id, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("SnapshotID reported %d bytes, wrote %d", n, buf.Len())
		}
		_, body, ok := bytes.Cut(buf.Bytes(), []byte("\n"))
		if !ok {
			t.Fatalf("SnapshotID(%s) wrote no header line", id)
		}
		sum := sha256.Sum256(body)
		d, ok := j.Digest(id)
		if !ok {
			t.Fatalf("Digest(%s) not found", id)
		}
		if want := hex.EncodeToString(sum[:]); d.Digest != want {
			t.Fatalf("digest[%s] = %s, want hash of SnapshotID body %s", id, d.Digest, want)
		}
	}
}

// TestSnapshotIDNotFound: an unknown id is ErrNotFound with nothing
// written, so the serving handler can still answer a clean 404.
func TestSnapshotIDNotFound(t *testing.T) {
	j, _ := snapshotJournal(t)
	var buf bytes.Buffer
	if _, err := j.SnapshotID(&buf, "zzzz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v, want ErrNotFound", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before the not-found answer", buf.Len())
	}
}

// TestParseSnapshotRefusesTruncation: ParseSnapshot is the strict
// variant of the replay parser — a byte-truncated image (a cut
// transfer) is ErrCorrupt, where Open would tolerate the torn tail.
func TestParseSnapshotRefusesTruncation(t *testing.T) {
	j, _ := snapshotJournal(t)
	var buf bytes.Buffer
	if _, err := j.SnapshotID(&buf, "aaaa"); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	recs, err := ParseSnapshot(full)
	if err != nil {
		t.Fatalf("intact snapshot refused: %v", err)
	}
	if len(recs) == 0 || recs[0].ID != "aaaa" || recs[0].Op != "" {
		t.Fatalf("parsed %+v", recs)
	}
	if _, err := ParseSnapshot(full[:len(full)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot parsed (err %v), want ErrCorrupt", err)
	}
}

// TestApplyConvergesDivergentJournal drives the full anti-entropy
// repair cycle at the journal layer: a replica that missed mirror
// records fetches the owner's per-id snapshot, Applies it, and must
// land on the owner's digest — and keep it across a restart, since
// the install relies on replay's last-wins rule.
func TestApplyConvergesDivergentJournal(t *testing.T) {
	owner, _ := snapshotJournal(t)

	// The divergent replica has aaaa's registration but missed both of
	// its mutations, and never saw cccc at all.
	path := testPath(t)
	replica, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	ownerDigests := owner.Digests()
	repDigests := replica.Digests()
	if repDigests["aaaa"] == ownerDigests["aaaa"] {
		t.Fatal("test premise broken: replica already converged")
	}

	for _, id := range []string{"aaaa", "cccc"} {
		var buf bytes.Buffer
		if _, err := owner.SnapshotID(&buf, id); err != nil {
			t.Fatal(err)
		}
		recs, err := ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Apply(id, recs); err != nil {
			t.Fatalf("Apply(%s): %v", id, err)
		}
	}
	for _, id := range []string{"aaaa", "cccc"} {
		got, ok := replica.Digest(id)
		if !ok || got != ownerDigests[id] {
			t.Fatalf("digest[%s] = %+v after reinstall, want %+v", id, got, ownerDigests[id])
		}
		gotV, _ := versionOf(replica, id)
		if gotV != ownerDigests[id].Version {
			t.Fatalf("version(%s) = %d, want %d", id, gotV, ownerDigests[id].Version)
		}
	}

	// The repair must be durable: a reopened replica replays the
	// installed registration as last-wins and keeps the digests.
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, id := range []string{"aaaa", "cccc"} {
		if got, ok := reopened.Digest(id); !ok || got != ownerDigests[id] {
			t.Fatalf("reopened digest[%s] = %+v, want %+v", id, got, ownerDigests[id])
		}
	}
}

// TestApplyRefusesStale pins the anti-entropy TOCTOU guard: the
// reconciler compares versions against a digest map captured at round
// start, so a write that lands between the comparison and the install
// must not be rolled back by the now-stale fetch. Apply re-checks
// under the journal lock and refuses anything not strictly ahead.
func TestApplyRefusesStale(t *testing.T) {
	owner, _ := snapshotJournal(t)
	replica, _ := snapshotJournal(t) // identical history: aaaa at version 2

	fetch := func(id string) []Record {
		t.Helper()
		var buf bytes.Buffer
		if _, err := owner.SnapshotID(&buf, id); err != nil {
			t.Fatal(err)
		}
		recs, err := ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	// Equal version: nothing to repair, the install is refused with
	// nothing written.
	recs := fetch("aaaa")
	size := replica.Size()
	if err := replica.Apply("aaaa", recs); !errors.Is(err, ErrStale) {
		t.Fatalf("equal-version install: err %v, want ErrStale", err)
	}
	if replica.Size() != size {
		t.Fatal("refused install wrote bytes")
	}

	// The race itself: the replica advances past the fetched snapshot
	// (a write landed after the digest comparison). The stale install
	// must be refused and the newer local copy kept.
	if err := replica.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1.5}}, BaseVersion: 3},
	}); err != nil {
		t.Fatal(err)
	}
	ahead, _ := replica.Digest("aaaa")
	size = replica.Size()
	if err := replica.Apply("aaaa", recs); !errors.Is(err, ErrStale) {
		t.Fatalf("behind-version install: err %v, want ErrStale", err)
	}
	if replica.Size() != size {
		t.Fatal("refused install wrote bytes")
	}
	if got, _ := replica.Digest("aaaa"); got != ahead {
		t.Fatalf("refused install moved the digest: %+v, want %+v", got, ahead)
	}

	// A strictly-ahead fetch still installs: the guard gates rollback,
	// not repair.
	if err := owner.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: -2}}, BaseVersion: 3},
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 1, Orient: 0.5}}, BaseVersion: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := replica.Apply("aaaa", fetch("aaaa")); err != nil {
		t.Fatalf("strictly-ahead install refused: %v", err)
	}
	want, _ := owner.Digest("aaaa")
	if got, _ := replica.Digest("aaaa"); got != want {
		t.Fatalf("digest %+v after ahead install, want %+v", got, want)
	}
}

// TestApplyValidation: malformed record sets are refused before
// anything is written.
func TestApplyValidation(t *testing.T) {
	j, _ := snapshotJournal(t)
	size := j.Size()
	cases := []struct {
		name string
		id   string
		recs []Record
	}{
		{"empty", "aaaa", nil},
		{"mutation first", "aaaa", []Record{{ID: "aaaa", Op: OpRemove, Remove: []int{0}}}},
		{"wrong id", "aaaa", []Record{{ID: "bbbb"}}},
		{"second registration", "aaaa", []Record{{ID: "aaaa"}, {ID: "aaaa"}}},
	}
	for _, tc := range cases {
		if err := j.Apply(tc.id, tc.recs); err == nil {
			t.Errorf("%s: Apply accepted", tc.name)
		}
	}
	if j.Size() != size {
		t.Fatal("refused applies wrote bytes")
	}
}

// TestVersionCounts: logical versions count mutation records and
// survive folding (BaseVersion carries the folded count).
func TestVersionCounts(t *testing.T) {
	j, _ := snapshotJournal(t)
	v, ok := versionOf(j, "aaaa")
	if !ok || v != 2 {
		t.Fatalf("version(aaaa) = %d,%v, want 2", v, ok)
	}
	if _, ok := versionOf(j, "zzzz"); ok {
		t.Fatal("version of unknown id reported ok")
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, _ := versionOf(j, "aaaa"); v != 2 {
		t.Fatalf("post-fold version(aaaa) = %d, want 2", v)
	}
	if err := j.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1}}, BaseVersion: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := versionOf(j, "aaaa"); v != 3 {
		t.Fatalf("version(aaaa) = %d after folded+1, want 3", v)
	}
}
