package depjournal

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// TestReplayFixture replays a committed journal written by an earlier
// build of this package, so a change to the reader cannot silently stop
// accepting journals already on disk. The fixture holds recipe and
// explicit registrations, reaim/remove/add mutations, a Folded
// registration with a baseVersion (written by Compact) followed by a
// later mutation, a duplicate registration (written by an anti-entropy
// install), and a torn final line.
func TestReplayFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/deployments.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := testPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}

	aaaa := explicitRec("aaaa", 3).Cameras
	aaaa[0].Orient = 2.5
	wantRegs := []Record{
		{ID: "aaaa", Cameras: []Camera{aaaa[0], aaaa[2], {X: 0.9, Y: 0.9, Orient: -1, Radius: 0.2, Aperture: 1.1}}, Folded: true, BaseVersion: 3},
		{ID: "bbbb", Profile: "0.3:0.2:0.4,0.7:0.1:0.5", N: 40, Seed: 7},
		{ID: "cccc", Torus: 2, Density: 120.5, Deploy: "poisson", Seed: 3},
		explicitRec("dddd", 4),
	}
	if got := j.Records(); !reflect.DeepEqual(got, wantRegs) {
		t.Fatalf("registrations = %+v\nwant %+v", got, wantRegs)
	}
	wantMuts := map[string][]Record{
		"aaaa": {{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 2, Orient: 0.75}}, BaseVersion: 4}},
		"bbbb": {{ID: "bbbb", Op: OpRemove, Remove: []int{5}, BaseVersion: 1}},
		"cccc": nil,
		"dddd": {
			{ID: "dddd", Op: OpRemove, Remove: []int{3, 0}, BaseVersion: 1},
			{ID: "dddd", Op: OpReaim, Reaim: []ReaimOp{{I: 1, Orient: -0.5}}, BaseVersion: 2},
		},
	}
	wantVersions := map[string]uint64{"aaaa": 4, "bbbb": 1, "cccc": 0, "dddd": 2}
	for id, want := range wantMuts {
		if got := j.Mutations(id); !reflect.DeepEqual(got, want) {
			t.Errorf("Mutations(%s) = %+v, want %+v", id, got, want)
		}
		if v, ok := versionOf(j, id); !ok || v != wantVersions[id] {
			t.Errorf("Version(%s) = %d, %v, want %d", id, v, ok, wantVersions[id])
		}
	}

	// The torn final line is cut from the file, and an append after the
	// repair replays cleanly.
	intact := int64(bytes.LastIndexByte(data, '\n') + 1)
	if j.Size() != intact {
		t.Fatalf("Size = %d, want the intact prefix %d", j.Size(), intact)
	}
	if err := j.Append(rec("eeee", 5)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 5 || !reflect.DeepEqual(j2.Records()[:4], wantRegs) {
		t.Fatalf("reopened registrations = %+v", j2.Records())
	}
}
