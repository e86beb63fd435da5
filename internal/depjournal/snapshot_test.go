package depjournal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// compact rewrites j as its folded snapshot whatever its size: the
// rewrite auto-compaction runs past its threshold.
func compact(j *Journal) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.compactLocked()
}

// snapshotJournal builds a journal exercising every snapshot shape:
// a foldable explicit deployment with mutations, a recipe deployment
// with no materialize hook (unfoldable — written verbatim), and an
// untouched registration.
func snapshotJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := testPath(t)
	j, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	if err := j.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 1, Orient: 2.25}}, BaseVersion: 1},
		{ID: "aaaa", Op: OpRemove, Remove: []int{0}, BaseVersion: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec("bbbb", 10)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("bbbb", []Record{
		{ID: "bbbb", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1}}, BaseVersion: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("cccc", 2)); err != nil {
		t.Fatal(err)
	}
	return j, path
}

// snapshotIDs are the deployments snapshotJournal holds, in
// registration order.
var snapshotIDs = []string{"aaaa", "bbbb", "cccc"}

// warmFrom installs each id's per-id snapshot from src into a fresh
// journal through Apply — exactly what a booting replica's warm round
// does — and returns it.
func warmFrom(t *testing.T, src *Journal, ids ...string) *Journal {
	t.Helper()
	dst, err := Open(testPath(t), Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	for _, id := range ids {
		var buf bytes.Buffer
		if _, err := src.SnapshotID(&buf, id); err != nil {
			t.Fatal(err)
		}
		recs, err := ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot of %s does not parse: %v", id, err)
		}
		if err := dst.Apply(id, recs); err != nil {
			t.Fatalf("Apply(%s): %v", id, err)
		}
	}
	return dst
}

// TestSnapshotBitIdenticalToCompaction pins the shipping guarantee: the
// bytes SnapshotID streams to a peer are the journal header followed by
// exactly the lines Compact writes locally for that id, so a peer that
// installs it holds what a local compaction would.
func TestSnapshotBitIdenticalToCompaction(t *testing.T) {
	j, path := snapshotJournal(t)

	shipped := map[string][]byte{}
	for _, id := range snapshotIDs {
		var buf bytes.Buffer
		n, err := j.SnapshotID(&buf, id)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("SnapshotID(%s) reported %d bytes, wrote %d", id, n, buf.Len())
		}
		shipped[id] = buf.Bytes()
	}

	if err := compact(j); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(disk), "\n")
	head, want := lines[0], map[string]string{}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		want[r.ID] += line
	}
	for _, id := range snapshotIDs {
		if got := string(shipped[id]); got != head+want[id] {
			t.Fatalf("snapshot of %s differs from its compacted lines:\nsnapshot:\n%s\ncompacted:\n%s%s", id, got, head, want[id])
		}
	}
}

// TestSnapshotReplaysToSameState: a journal warmed from the per-id
// snapshots answers Records/Lookup/Mutations exactly like the source
// journal after compaction — the state a warmed peer serves from is the
// state the donor held.
func TestSnapshotReplaysToSameState(t *testing.T) {
	j, _ := snapshotJournal(t)
	warmed := warmFrom(t, j, snapshotIDs...)

	if err := compact(j); err != nil {
		t.Fatal(err)
	}
	if got, want := warmed.Records(), j.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("warmed records\n%+v\nwant\n%+v", got, want)
	}
	for _, id := range snapshotIDs {
		if got, want := warmed.Mutations(id), j.Mutations(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("warmed mutations for %s = %+v, want %+v", id, got, want)
		}
	}
	// The foldable deployment arrived folded: one registration, no
	// mutation records, the final camera list inline.
	reg, ok := warmed.Lookup("aaaa")
	if !ok || !reg.Folded || reg.BaseVersion != 2 {
		t.Fatalf("warmed aaaa = %+v, want a Folded registration at baseVersion 2", reg)
	}
	if len(reg.Cameras) != 2 {
		t.Fatalf("folded aaaa has %d cameras, want 2 (one removed)", len(reg.Cameras))
	}
}

// TestSnapshotCommitsNothing: unlike Compact, SnapshotID must not touch
// the journal — not its file, not its in-memory mutation lists.
func TestSnapshotCommitsNothing(t *testing.T) {
	j, path := snapshotJournal(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutsBefore := j.Mutations("aaaa")

	for _, id := range snapshotIDs {
		if _, err := j.SnapshotID(new(bytes.Buffer), id); err != nil {
			t.Fatal(err)
		}
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("SnapshotID modified the journal file")
	}
	if got := j.Mutations("aaaa"); !reflect.DeepEqual(got, mutsBefore) {
		t.Fatalf("SnapshotID folded the in-memory mutations: %+v", got)
	}
	// And appends still land after a snapshot.
	if err := j.Append(rec("dddd", 4)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMidAppendReplaysConsistently is the torn-read guard: a
// snapshot taken while another goroutine is appending mutations must
// replay to a consistent prefix of the final state — the registration
// with the first k mutations folded in, for some k ≤ total — never a
// torn or interleaved image. Camera 0's orientation is a marker that
// encodes k, so each snapshot is checked against the exact expected
// fold for the prefix it captured. Run with -race this also proves the
// copy-under-lock discipline.
func TestSnapshotMidAppendReplaysConsistently(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const depID, total = "dddd", 40
	reg := explicitRec(depID, 4)
	muts := make([]Record, total)
	for k := range muts {
		muts[k] = Record{ID: depID, Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: float64(k + 1)}}, BaseVersion: uint64(k + 1)}
	}
	// expected[k] is the folded state after the first k mutations.
	expected := make([]Record, total+1)
	expected[0] = reg
	for k := 1; k <= total; k++ {
		folded, ok := foldDeployment(reg, muts[:k], nil)
		if !ok {
			t.Fatalf("prefix %d does not fold", k)
		}
		expected[k] = folded
	}

	if err := j.Append(reg); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for k := range muts {
			if err := j.AppendMutations(depID, muts[k:k+1]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	dir := t.TempDir()
	checkSnapshot := func(i int) int {
		var buf bytes.Buffer
		if _, err := j.SnapshotID(&buf, depID); err != nil {
			t.Fatal(err)
		}
		sp := filepath.Join(dir, "snap.jsonl")
		if err := os.WriteFile(sp, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		warmed, err := Open(sp, Options{CompactBytes: -1})
		if err != nil {
			t.Fatalf("snapshot %d does not replay: %v", i, err)
		}
		defer warmed.Close()
		got, ok := warmed.Lookup(depID)
		if !ok {
			t.Fatalf("snapshot %d lost deployment %s", i, depID)
		}
		k := int(got.Cameras[0].Orient) // the marker the k-th mutation wrote
		if k < 0 || k > total {
			t.Fatalf("snapshot %d: marker orient %v outside [0,%d]", i, got.Cameras[0].Orient, total)
		}
		if !reflect.DeepEqual(got, expected[k]) {
			t.Fatalf("snapshot %d replayed\n%+v\nwant the k=%d prefix fold\n%+v", i, got, k, expected[k])
		}
		if warmed.Mutations(depID) != nil {
			t.Fatalf("snapshot %d shipped unfolded mutations", i)
		}
		return k
	}

	lastK := 0
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// One final snapshot with all appends landed.
			if k := checkSnapshot(i); k != total {
				t.Fatalf("final snapshot captured prefix %d, want %d", k, total)
			}
			if lastK == 0 {
				t.Log("note: no snapshot overlapped the appends (scheduler timing); prefix consistency still verified")
			}
			return
		default:
		}
		k := checkSnapshot(i)
		if k < lastK {
			t.Fatalf("snapshot %d went backwards: prefix %d after %d", i, k, lastK)
		}
		lastK = k
	}
}

// TestSnapshotClosed: a closed journal refuses to snapshot.
func TestSnapshotClosed(t *testing.T) {
	j, _ := snapshotJournal(t)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.SnapshotID(new(bytes.Buffer), "aaaa"); !errors.Is(err, ErrClosed) {
		t.Fatalf("SnapshotID on closed journal = %v, want ErrClosed", err)
	}
}
