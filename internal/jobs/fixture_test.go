package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestReplayFixtures restores committed job journals written by an
// earlier build of this package, so a change to the reader cannot
// silently stop accepting journals already on disk: a mid-run sweep
// (bands 0, 1 and 5 journaled, band 6 torn) and a compacted finished
// one. The mid-run job must resume from exactly its intact bands and
// finish bit-identical to an uninterrupted survey.
func TestReplayFixtures(t *testing.T) {
	dir := t.TempDir()
	fixture := map[string][]byte{}
	for _, id := range []string{"job-fixture-midrun", "job-fixture-done"} {
		data, err := os.ReadFile(filepath.Join("testdata", id+fileSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+fileSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fixture[id] = data
	}
	net := testNet(t, 600, 19)
	spec := Spec{Kind: KindSweep, Deployment: "dep-fixture", ThetasPi: []float64{0.25, 0.5}, Grid: 4}
	want := wholeGrid(t, net, spec)

	// Hold the resumed job at its start until its replayed state is
	// checked.
	release := make(chan struct{})
	var once sync.Once
	exec := realExec(t, net)
	m := newManager(t, Config{Dir: dir, TTL: -1}, func(s Spec) (BandRunner, error) {
		<-release
		return exec(s)
	})
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	m.Start()

	done, err := m.Get("job-fixture-done")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Resumed || !done.Finished.Equal(time.Unix(1700000200, 0)) {
		t.Fatalf("finished job restored as %+v", done)
	}
	if len(done.Result.Stats) != 2 || done.Result.Stats[0] != want[0] || done.Result.Stats[1] != want[1] {
		t.Fatalf("finished job result %+v, want %+v", done.Result.Stats, want)
	}

	mid, err := m.Get("job-fixture-midrun")
	if err != nil {
		t.Fatal(err)
	}
	if !mid.Resumed || mid.BandsDone != 3 || mid.Bands != 8 || !mid.Created.Equal(time.Unix(1700000000, 0)) {
		t.Fatalf("mid-run job restored as %+v", mid)
	}
	data := fixture["job-fixture-midrun"]
	intact := int64(bytes.LastIndexByte(data, '\n') + 1)
	if st, err := os.Stat(filepath.Join(dir, "job-fixture-midrun"+fileSuffix)); err != nil || st.Size() != intact {
		t.Fatalf("torn tail not cut: stat %v, %v; want size %d", st, err, intact)
	}

	once.Do(func() { close(release) })
	final := waitTerminal(t, m, "job-fixture-midrun")
	if final.State != StateDone || len(final.Result.Stats) != 2 {
		t.Fatalf("resumed job ended %+v", final)
	}
	for i := range want {
		if final.Result.Stats[i] != want[i] {
			t.Fatalf("slot %d: resumed %+v != uninterrupted %+v", i, final.Result.Stats[i], want[i])
		}
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(bad) != 0 {
		t.Fatalf("quarantined: %v", bad)
	}
}
