package depjournal

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"fullview/internal/faultinject"
)

// explicitRec is a registration with an explicit camera list, the form
// compaction can fold without a materialize hook.
func explicitRec(id string, n int) Record {
	cams := make([]Camera, n)
	for i := range cams {
		cams[i] = Camera{X: 0.1 * float64(i+1), Y: 0.2, Orient: float64(i), Radius: 0.1, Aperture: 0.7, Group: i % 2}
	}
	return Record{ID: id, Cameras: cams}
}

// TestMutationsRoundTrip appends mutation batches and checks a
// restarted journal replays them in order.
func TestMutationsRoundTrip(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	muts := []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 2.5}, {I: 2, Orient: -1}}, BaseVersion: 1},
		{ID: "aaaa", Op: OpRemove, Remove: []int{1}, BaseVersion: 2},
		{ID: "aaaa", Op: OpAdd, Cameras: []Camera{{X: 0.9, Y: 0.9, Radius: 0.2, Aperture: 1.1}}, BaseVersion: 3},
	}
	if err := j.AppendMutations("aaaa", muts[:2]); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("aaaa", muts[2:]); err != nil {
		t.Fatal(err)
	}
	if got := j.Mutations("aaaa"); !reflect.DeepEqual(got, muts) {
		t.Fatalf("Mutations = %+v, want %+v", got, muts)
	}
	j.Close()

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Mutations("aaaa"); !reflect.DeepEqual(got, muts) {
		t.Fatalf("replayed mutations = %+v, want %+v", got, muts)
	}
	if reg, _ := j2.Lookup("aaaa"); reg.Folded || len(reg.Cameras) != 3 {
		t.Fatalf("registration drifted: %+v", reg)
	}
}

// TestAppendMutationsValidation pins the error contract.
func TestAppendMutationsValidation(t *testing.T) {
	j, err := Open(testPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(explicitRec("aaaa", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("zzzz", []Record{{ID: "zzzz", Op: OpRemove, Remove: []int{0}, BaseVersion: 1}}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unregistered id: err = %v, want ErrUnknownID", err)
	}
	if err := j.AppendMutations("aaaa", []Record{{ID: "bbbb", Op: OpRemove}}); err == nil {
		t.Fatal("mismatched record id accepted")
	}
	if err := j.AppendMutations("aaaa", []Record{{ID: "aaaa"}}); err == nil {
		t.Fatal("mutation without op accepted")
	}
	if err := j.AppendMutations("aaaa", []Record{{ID: "aaaa", Op: "explode"}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := j.Append(Record{ID: "aaaa", Op: OpAdd}); err == nil {
		t.Fatal("Append accepted a mutation record")
	}
	if got := j.Mutations("aaaa"); got != nil {
		t.Fatalf("failed appends leaked mutations: %+v", got)
	}
	// Empty batch is a no-op.
	if err := j.AppendMutations("aaaa", nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendMutationsGate pins the owner half of the version gate: a
// stamp at or below the local version is ErrStale, one past the next
// version is ErrGap, and unstamped or non-consecutive stamps are
// ErrInvalid — each refusal leaving the file bytes and the version as
// they were — while the continuation lands.
func TestAppendMutationsGate(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(explicitRec("aaaa", 2)); err != nil {
		t.Fatal(err)
	}
	reaim := func(v uint64) Record {
		return Record{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: float64(v)}}, BaseVersion: v}
	}
	if err := j.AppendMutations("aaaa", []Record{reaim(1), reaim(2)}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		muts []Record
		want error
	}{
		{"stale", []Record{reaim(2)}, ErrStale},
		{"overlapping", []Record{reaim(2), reaim(3)}, ErrStale},
		{"gapped", []Record{reaim(4)}, ErrGap},
		{"unstamped", []Record{reaim(0)}, ErrInvalid},
		{"non-consecutive", []Record{reaim(3), reaim(5)}, ErrInvalid},
	} {
		if err := j.AppendMutations("aaaa", tc.muts); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: refused batch changed the file", tc.name)
		}
		if v, _ := versionOf(j, "aaaa"); v != 2 {
			t.Fatalf("%s: version %d after a refused batch, want 2", tc.name, v)
		}
	}
	if err := j.AppendMutations("aaaa", []Record{reaim(3)}); err != nil {
		t.Fatalf("continuation refused: %v", err)
	}
	if v, _ := versionOf(j, "aaaa"); v != 3 {
		t.Fatalf("version %d after the continuation, want 3", v)
	}
}

// TestDanglingMutationIsCorrupt checks that a journal whose interior
// holds a mutation for an unregistered id is refused: the writer
// journals registrations strictly first, so this shape is damage.
func TestDanglingMutationIsCorrupt(t *testing.T) {
	path := testPath(t)
	body := `{"version":1,"kind":"fvcd/deployments"}` + "\n" +
		`{"id":"aaaa","op":"remove","remove":[0]}` + "\n" +
		`{"id":"aaaa","n":5}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestTornFinalMutationLine checks a crash mid-mutation-append: the
// torn line is dropped, the registration and earlier mutations survive,
// and a fresh batch lands cleanly.
func TestTornFinalMutationLine(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("aaaa", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("aaaa", []Record{{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1}}, BaseVersion: 1}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate the torn write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"aaaa","op":"remove","remove":[1`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	muts := j2.Mutations("aaaa")
	if len(muts) != 1 || muts[0].Op != OpReaim {
		t.Fatalf("replayed mutations = %+v, want the one intact reaim", muts)
	}
	if err := j2.AppendMutations("aaaa", []Record{{ID: "aaaa", Op: OpRemove, Remove: []int{1}, BaseVersion: 2}}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.Mutations("aaaa"); len(got) != 2 {
		t.Fatalf("after torn-line recovery: %d mutations, want 2", len(got))
	}
}

// TestDuplicateRegistrationResetsOnDisk checks the last-wins semantics
// across a mutation history: a later registration line for the same id
// supersedes both the earlier registration and its mutations.
func TestDuplicateRegistrationResetsOnDisk(t *testing.T) {
	path := testPath(t)
	body := `{"version":1,"kind":"fvcd/deployments"}` + "\n" +
		`{"id":"aaaa","cameras":[{"x":0.1,"y":0.1,"radius":0.1,"aperture":0.5}]}` + "\n" +
		`{"id":"aaaa","op":"remove","remove":[0]}` + "\n" +
		`{"id":"aaaa","cameras":[{"x":0.9,"y":0.9,"radius":0.2,"aperture":0.8}]}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j.Len())
	}
	if got := j.Mutations("aaaa"); got != nil {
		t.Fatalf("reset registration kept mutations: %+v", got)
	}
	reg, _ := j.Lookup("aaaa")
	if len(reg.Cameras) != 1 || reg.Cameras[0].X != 0.9 {
		t.Fatalf("last-wins registration wrong: %+v", reg)
	}
}

// TestFoldOnCompaction checks that Compact absorbs an explicit-camera
// deployment's mutations into one Folded registration whose camera list
// is exactly the live list, carrying the folded-in version.
func TestFoldOnCompaction(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	muts := []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 9.75}}, BaseVersion: 1},
		{ID: "aaaa", Op: OpRemove, Remove: []int{1}, BaseVersion: 2},
		{ID: "aaaa", Op: OpAdd, Cameras: []Camera{{X: 0.9, Y: 0.9, Orient: -3, Radius: 0.2, Aperture: 1.1, Group: 7}}, BaseVersion: 3},
	}
	if err := j.AppendMutations("aaaa", muts); err != nil {
		t.Fatal(err)
	}
	if err := compact(j); err != nil {
		t.Fatal(err)
	}
	reg, ok := j.Lookup("aaaa")
	if !ok || !reg.Folded {
		t.Fatalf("registration not folded: %+v", reg)
	}
	if reg.BaseVersion != 3 {
		t.Fatalf("BaseVersion = %d, want 3", reg.BaseVersion)
	}
	// Expected live list: camera 0 reaimed, camera 1 removed, one added.
	base := explicitRec("aaaa", 3).Cameras
	want := []Camera{
		{X: base[0].X, Y: base[0].Y, Orient: 9.75, Radius: base[0].Radius, Aperture: base[0].Aperture, Group: base[0].Group},
		base[2],
		{X: 0.9, Y: 0.9, Orient: -3, Radius: 0.2, Aperture: 1.1, Group: 7},
	}
	if !reflect.DeepEqual(reg.Cameras, want) {
		t.Fatalf("folded cameras = %+v, want %+v", reg.Cameras, want)
	}
	if got := j.Mutations("aaaa"); got != nil {
		t.Fatalf("fold left mutations behind: %+v", got)
	}
	j.Close()

	// The folded snapshot must replay identically.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg2, _ := j2.Lookup("aaaa")
	if !reflect.DeepEqual(reg2, reg) {
		t.Fatalf("folded record drifted across restart: %+v vs %+v", reg2, reg)
	}
}

// TestFoldRecipeNeedsMaterialize checks that a recipe-form deployment
// folds only when the journal has a materialize hook; without one the
// registration and mutations are kept verbatim.
func TestFoldRecipeNeedsMaterialize(t *testing.T) {
	recipe := Record{ID: "aaaa", Profile: "1:0.1:0.5", N: 2, Seed: 7}
	mut := Record{ID: "aaaa", Op: OpRemove, Remove: []int{0}, BaseVersion: 1}

	// Without a hook: kept verbatim.
	path := testPath(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recipe); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("aaaa", []Record{mut}); err != nil {
		t.Fatal(err)
	}
	if err := compact(j); err != nil {
		t.Fatal(err)
	}
	if reg, _ := j.Lookup("aaaa"); reg.Folded {
		t.Fatal("recipe folded without a materialize hook")
	}
	if got := j.Mutations("aaaa"); len(got) != 1 {
		t.Fatalf("mutations lost without fold: %+v", got)
	}
	j.Close()

	// With a hook: folded through the materialised list.
	materialize := func(r Record) ([]Camera, error) {
		return []Camera{
			{X: 0.1, Y: 0.1, Radius: 0.1, Aperture: 0.5},
			{X: 0.6, Y: 0.6, Orient: 1, Radius: 0.2, Aperture: 0.9},
		}, nil
	}
	j2, err := Open(path, Options{Materialize: materialize})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := compact(j2); err != nil {
		t.Fatal(err)
	}
	reg, _ := j2.Lookup("aaaa")
	if !reg.Folded || reg.BaseVersion != 1 {
		t.Fatalf("recipe not folded under hook: %+v", reg)
	}
	want := []Camera{{X: 0.6, Y: 0.6, Orient: 1, Radius: 0.2, Aperture: 0.9}}
	if !reflect.DeepEqual(reg.Cameras, want) {
		t.Fatalf("folded cameras = %+v, want %+v", reg.Cameras, want)
	}
	if reg.Profile != "" || reg.N != 0 {
		t.Fatalf("folded record kept its recipe: %+v", reg)
	}
}

// TestFoldFailureKeepsRecords checks that an unfoldable deployment (a
// fold that would empty the camera list) survives compaction verbatim
// and stops counting as reclaimable.
func TestFoldFailureKeepsRecords(t *testing.T) {
	j, err := Open(testPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(explicitRec("aaaa", 1)); err != nil {
		t.Fatal(err)
	}
	// Removing the only camera folds to an empty list — unfoldable.
	if err := j.AppendMutations("aaaa", []Record{{ID: "aaaa", Op: OpRemove, Remove: []int{0}, BaseVersion: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := compact(j); err != nil {
		t.Fatal(err)
	}
	if reg, _ := j.Lookup("aaaa"); reg.Folded {
		t.Fatal("empty fold was accepted")
	}
	if got := j.Mutations("aaaa"); len(got) != 1 {
		t.Fatalf("unfoldable deployment lost its mutations: %+v", got)
	}
	if !j.deps[0].unfoldable {
		t.Fatal("failed fold not marked unfoldable")
	}
	if j.compactNeededLocked() {
		t.Fatal("unfoldable deployment still counts as reclaimable")
	}
}

// TestCompactionFoldsPastThreshold checks the automatic trigger: a
// mutation-heavy journal past CompactBytes folds on its own append
// path and the file shrinks.
func TestCompactionFoldsPastThreshold(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("aaaa", 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := j.AppendMutations("aaaa", []Record{
			{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: float64(i)}}, BaseVersion: uint64(i) + 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg, _ := j.Lookup("aaaa")
	if !reg.Folded {
		t.Fatalf("mutation-heavy journal never folded (size %d)", j.Size())
	}
	if n := len(j.Mutations("aaaa")); n == 64 {
		t.Fatal("no mutations were absorbed")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != j.Size() {
		t.Fatalf("Size()=%d disagrees with file %d", j.Size(), fi.Size())
	}
	j.Close()
	// Everything still replays.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg2, _ := j2.Lookup("aaaa")
	if !reg2.Folded || len(reg2.Cameras) != 2 {
		t.Fatalf("replayed folded record wrong: %+v", reg2)
	}
}

// TestAppendMutationsInjectedFailure checks the faultinject point on
// the mutation path: nothing is recorded, the journal recovers when
// the fault clears.
func TestAppendMutationsInjectedFailure(t *testing.T) {
	defer faultinject.Reset()
	j, err := Open(testPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(explicitRec("aaaa", 1)); err != nil {
		t.Fatal(err)
	}
	diskGone := errors.New("injected: disk gone")
	remove := faultinject.Set(faultinject.JournalWrite, faultinject.Error(diskGone))
	mut := Record{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1}}, BaseVersion: 1}
	if err := j.AppendMutations("aaaa", []Record{mut}); !errors.Is(err, diskGone) {
		t.Fatalf("AppendMutations under injection = %v, want %v", err, diskGone)
	}
	if got := j.Mutations("aaaa"); got != nil {
		t.Fatal("failed mutation append leaked into memory")
	}
	remove()
	if err := j.AppendMutations("aaaa", []Record{mut}); err != nil {
		t.Fatalf("AppendMutations after fault cleared = %v", err)
	}
	if got := j.Mutations("aaaa"); len(got) != 1 {
		t.Fatalf("recovered mutation not recorded: %+v", got)
	}
}

// TestMutationBatchAtomicOnDisk checks the one-write-one-fsync batch
// contract indirectly: a multi-record batch lands as consecutive lines
// and replays whole.
func TestMutationBatchAtomicOnDisk(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 1, Orient: 0.5}}, BaseVersion: 1},
		{ID: "aaaa", Op: OpRemove, Remove: []int{0}, BaseVersion: 2},
		{ID: "aaaa", Op: OpAdd, Cameras: []Camera{{X: 0.2, Y: 0.8, Radius: 0.1, Aperture: 0.6}}, BaseVersion: 3},
	}
	if err := j.AppendMutations("aaaa", batch); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 5 { // header + registration + 3 mutations
		t.Fatalf("journal holds %d lines, want 5:\n%s", len(lines), data)
	}
}
