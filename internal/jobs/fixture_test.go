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
// (bands 0, 1 and 5 journaled, band 6 torn), a compacted finished
// one, and a mid-run survey (its first row group, bands 0-3, and band 4
// of its second journaled, band 5 torn), whose header keeps
// "kind":"survey". Each mid-run job must resume from exactly its
// intact bands and finish bit-identical to an uninterrupted survey.
func TestReplayFixtures(t *testing.T) {
	dir := t.TempDir()
	fixture := map[string][]byte{}
	for _, id := range []string{"job-fixture-midrun", "job-fixture-done", "job-fixture-survey-midrun"} {
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
	survey := Spec{Kind: KindSurvey, Deployment: "dep-fixture", ThetasPi: []float64{0.25}, Grid: 8}
	wantSurvey := wholeGrid(t, net, survey)

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
	if done.State != StateDone || done.Resumed || !done.Finished.Equal(time.Unix(1700000200, 0)) ||
		done.BandsDone != done.Bands || done.Bands != 8 {
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
	sur, err := m.Get("job-fixture-survey-midrun")
	if err != nil {
		t.Fatal(err)
	}
	if !sur.Resumed || sur.BandsDone != 5 || sur.Bands != 8 || sur.Spec.Kind != KindSurvey ||
		!sur.Created.Equal(time.Unix(1700000300, 0)) {
		t.Fatalf("mid-run survey restored as %+v", sur)
	}
	for _, id := range []string{"job-fixture-midrun", "job-fixture-survey-midrun"} {
		data := fixture[id]
		intact := int64(bytes.LastIndexByte(data, '\n') + 1)
		if st, err := os.Stat(filepath.Join(dir, id+fileSuffix)); err != nil || st.Size() != intact {
			t.Fatalf("%s: torn tail not cut: stat %v, %v; want size %d", id, st, err, intact)
		}
	}

	once.Do(func() { close(release) })
	final := waitTerminal(t, m, "job-fixture-midrun")
	if final.State != StateDone || len(final.Result.Stats) != 2 || final.BandsDone != 8 {
		t.Fatalf("resumed job ended %+v", final)
	}
	for i := range want {
		if final.Result.Stats[i] != want[i] {
			t.Fatalf("slot %d: resumed %+v != uninterrupted %+v", i, final.Result.Stats[i], want[i])
		}
	}
	final = waitTerminal(t, m, "job-fixture-survey-midrun")
	if final.State != StateDone || final.Spec.Kind != KindSurvey || len(final.Result.Stats) != 1 ||
		final.BandsDone != 8 || final.Result.Stats[0] != wantSurvey[0] {
		t.Fatalf("resumed survey ended %+v, want result %+v", final, wantSurvey[0])
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(bad) != 0 {
		t.Fatalf("quarantined: %v", bad)
	}
}
