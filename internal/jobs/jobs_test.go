package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/experiment"
	"fullview/internal/faultinject"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

const testProfile = "0.3:0.2:0.4,0.7:0.1:0.5"

func testNet(t *testing.T, n int, seed uint64) *sensor.Network {
	t.Helper()
	profile, err := sensor.ParseProfile(testProfile)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, n, rng.New(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// realExec builds the same row-group executor the server wires in: one
// MultiChecker over every θ slot, one fused sweep per row group.
func realExec(t *testing.T, net *sensor.Network) Exec {
	t.Helper()
	return func(spec Spec) (BandRunner, error) {
		thetas := make([]float64, spec.Slots())
		for i, tp := range spec.ThetasPi {
			thetas[i] = tp * math.Pi
		}
		mc, err := core.NewMultiChecker(net, thetas)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, rowLo, rowHi int) ([]core.RegionStats, error) {
			return mc.SurveyGridContext(ctx, spec.Grid, rowLo, rowHi, max(spec.Workers, 1))
		}, nil
	}
}

// wholeGrid computes the uninterrupted reference result for a spec.
func wholeGrid(t *testing.T, net *sensor.Network, spec Spec) []core.RegionStats {
	t.Helper()
	points, err := deploy.GridPoints(geom.UnitTorus, spec.Grid)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.RegionStats, spec.Slots())
	for i, tp := range spec.ThetasPi {
		c, err := core.NewChecker(net, tp*math.Pi)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c.SurveyRegion(points)
	}
	return out
}

func quietConfig(cfg Config) Config {
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	return cfg
}

func newManager(t *testing.T, cfg Config, exec Exec) *Manager {
	t.Helper()
	m, err := New(quietConfig(cfg), exec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func surveySpec(grid int) Spec {
	return Spec{Kind: KindSurvey, Deployment: "dep", ThetasPi: []float64{0.25}, Grid: grid}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	var snap Snapshot
	waitFor(t, "job "+id+" terminal", func() bool {
		var err error
		snap, err = m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		return snap.State.Terminal()
	})
	return snap
}

func TestSurveyJobMatchesLibrary(t *testing.T) {
	net := testNet(t, 150, 7)
	m := newManager(t, Config{}, realExec(t, net))
	m.Start()
	spec := surveySpec(12)
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Bands != 12 || snap.State != StateQueued && snap.State != StateRunning && snap.State != StateDone {
		t.Fatalf("odd initial snapshot: %+v", snap)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Err)
	}
	want := wholeGrid(t, net, spec)
	if len(final.Result.Stats) != 1 || final.Result.Stats[0] != want[0] {
		t.Fatalf("job result %+v != library %+v", final.Result.Stats, want)
	}
	if got := m.StateCount(StateDone); got != 1 {
		t.Fatalf("StateCount(done) = %d, want 1", got)
	}
	if m.BandsDone() != 12 || final.BandsDone != 12 {
		t.Fatalf("BandsDone = %d, snapshot %d, want 12", m.BandsDone(), final.BandsDone)
	}
}

func TestSweepJobMatchesLibrary(t *testing.T) {
	net := testNet(t, 120, 11)
	m := newManager(t, Config{}, realExec(t, net))
	m.Start()
	spec := Spec{Kind: KindSweep, Deployment: "dep", ThetasPi: []float64{0.2, 0.25, 0.5}, Grid: 8}
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Err)
	}
	want := wholeGrid(t, net, spec)
	if len(final.Result.Stats) != 3 {
		t.Fatalf("got %d slots, want 3", len(final.Result.Stats))
	}
	for i := range want {
		if final.Result.Stats[i] != want[i] {
			t.Fatalf("slot %d: job %+v != library %+v", i, final.Result.Stats[i], want[i])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{}, realExec(t, testNet(t, 10, 1)))
	bad := []Spec{
		{Kind: "mystery", Deployment: "dep", ThetasPi: []float64{0.5}, Grid: 4},
		{Kind: KindSurvey, Deployment: "", ThetasPi: []float64{0.5}, Grid: 4},
		{Kind: KindSurvey, Deployment: "dep", ThetasPi: []float64{0.5, 0.6}, Grid: 4},
		{Kind: KindSweep, Deployment: "dep", ThetasPi: nil, Grid: 4},
		{Kind: KindSurvey, Deployment: "dep", ThetasPi: []float64{0}, Grid: 4},
		{Kind: KindSurvey, Deployment: "dep", ThetasPi: []float64{1.5}, Grid: 4},
		{Kind: KindSurvey, Deployment: "dep", ThetasPi: []float64{0.5}, Grid: 0},
		// The deployment id becomes part of the journal's file name.
		{Kind: KindSurvey, Deployment: "../x", ThetasPi: []float64{0.5}, Grid: 4},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %d: Submit accepted %+v", i, spec)
		}
	}
}

// TestDeploymentOf: a minted job id names its deployment, and ids that
// name none — the pre-deployment shape, the fixtures' hand-made ids and
// malformed ones — answer false.
func TestDeploymentOf(t *testing.T) {
	m := newManager(t, Config{}, realExec(t, testNet(t, 10, 1)))
	for _, dep := range []string{"dep", "3f82aa01", "a-b_C-0123456789abcdef01234567"} {
		spec := surveySpec(4)
		spec.Deployment = dep
		snap, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := DeploymentOf(snap.ID); !ok || got != dep {
			t.Errorf("DeploymentOf(%q) = %q, %v; want %q", snap.ID, got, ok, dep)
		}
	}
	for _, id := range []string{
		"job-3f82aa0199c4d5e6f7a8b9c0", // minted before ids carried a deployment
		"job-fixture-done",             // the fixtures' hand-made ids
		"job-fixture-midrun",
		"job--3f82aa0199c4d5e6f7a8b9c0",    // empty deployment
		"job-a.b-3f82aa0199c4d5e6f7a8b9c0", // a character outside [0-9A-Za-z_-]
		"job-dep_3f82aa0199c4d5e6f7a8b9c0", // no separator before the suffix
		"job-dep-3f82aa0199c4d5e6f7a8b9cz", // suffix not hex
		"jab-dep-3f82aa0199c4d5e6f7a8b9c0", // wrong prefix
		"",
	} {
		if dep, ok := DeploymentOf(id); ok {
			t.Errorf("DeploymentOf(%q) = %q, true; want false", id, dep)
		}
	}
}

func TestJournalRoundTripAndCompaction(t *testing.T) {
	net := testNet(t, 100, 3)
	dir := t.TempDir()
	m := newManager(t, Config{Dir: dir}, realExec(t, net))
	m.Start()
	snap, err := m.Submit(surveySpec(6))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q)", final.State, final.Err)
	}
	if !final.Durable {
		t.Fatal("job with a state dir should be durable")
	}
	path := filepath.Join(dir, snap.ID+fileSuffix)
	var data []byte
	// Compaction happens inside finishJob but after the state flips, so
	// poll briefly for the two-line compacted image.
	waitFor(t, "compacted journal", func() bool {
		data, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return len(strings.Split(strings.TrimRight(string(data), "\n"), "\n")) == 2
	})
	hdr, bands, term, good, perr := parseJob(data)
	if perr != nil {
		t.Fatalf("parseJob: %v", perr)
	}
	if good != int64(len(data)) {
		t.Fatalf("good = %d, want %d", good, len(data))
	}
	if hdr.ID != snap.ID || hdr.Spec.Kind != KindSurvey {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	if len(bands) != 0 {
		t.Fatalf("compacted journal still has %d band records", len(bands))
	}
	if term == nil || term.State != StateDone {
		t.Fatalf("terminal record = %+v", term)
	}
	if len(term.Result.Stats) != 1 || term.Result.Stats[0] != final.Result.Stats[0] {
		t.Fatalf("journaled result %+v != in-memory %+v", term.Result.Stats, final.Result.Stats)
	}
}

// TestResumeBitIdentical is the keystone: a job abandoned mid-run (the
// manager torn down with no terminal record, as a kill -9 would) must,
// on a fresh manager over the same directory, resume from the journaled
// bands and finish with a result bit-identical to an uninterrupted run.
func TestResumeBitIdentical(t *testing.T) {
	defer faultinject.Reset()
	net := testNet(t, 150, 19)
	dir := t.TempDir()
	spec := surveySpec(10)

	// The grid of 10 runs as two row groups of 5 rows. Let the first
	// group's attempt through, then block the second until the first
	// manager is being torn down.
	gate := make(chan struct{})
	var fires atomic.Int64
	remove := faultinject.Set(faultinject.JobBand, func() error {
		if fires.Add(1) >= 2 {
			<-gate
		}
		return nil
	})

	m1, err := New(quietConfig(Config{Dir: dir}), realExec(t, net))
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	snap, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first group journaled", func() bool {
		s, err := m1.Get(snap.ID)
		return err == nil && s.BandsDone >= 5
	})

	// Tear down like a crash: Close cancels the workers' context and
	// never writes a terminal record for the running job. Release the
	// gate only once the cancellation is in flight so the job cannot
	// sneak to completion.
	closed := make(chan struct{})
	go func() { m1.Close(); close(closed) }()
	waitFor(t, "manager context cancelled", func() bool { return m1.baseCtx.Err() != nil })
	close(gate)
	<-closed
	remove()

	m2 := newManager(t, Config{Dir: dir}, realExec(t, net))
	m2.Start()
	final := waitTerminal(t, m2, snap.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state = %s (err %q), want done", final.State, final.Err)
	}
	if !final.Resumed {
		t.Fatal("snapshot should report Resumed")
	}
	if m2.Resumes() != 1 {
		t.Fatalf("Resumes = %d, want 1", m2.Resumes())
	}
	if m2.BandsDone() != 5 {
		t.Fatalf("resumed job computed %d bands, want only the second group's 5", m2.BandsDone())
	}
	want := wholeGrid(t, net, spec)
	if final.Result.Stats[0] != want[0] {
		t.Fatalf("resumed result %+v != uninterrupted %+v", final.Result.Stats[0], want[0])
	}
}

func TestCancelBeforeStartAndDoubleCancel(t *testing.T) {
	// No Start: nothing ever dequeues, so the job is pinned at queued.
	m := newManager(t, Config{}, realExec(t, testNet(t, 10, 1)))
	snap, err := m.Submit(surveySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", got.State)
	}
	again, err := m.Cancel(snap.ID)
	if err != nil {
		t.Fatalf("second cancel errored: %v", err)
	}
	if again.State != StateCancelled || !again.Finished.Equal(got.Finished) {
		t.Fatalf("double cancel not idempotent: %+v vs %+v", again, got)
	}
	if n := m.StateCount(StateCancelled); n != 1 {
		t.Fatalf("StateCount(cancelled) = %d, want 1", n)
	}
}

func TestCancelMidBand(t *testing.T) {
	defer faultinject.Reset()
	gate := make(chan struct{})
	remove := faultinject.Set(faultinject.JobBand, func() error {
		<-gate
		return nil
	})
	defer remove()
	m := newManager(t, Config{}, realExec(t, testNet(t, 50, 5)))
	m.Start()
	snap, err := m.Submit(surveySpec(6))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		s, err := m.Get(snap.ID)
		return err == nil && s.State == StateRunning
	})
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatalf("cancel after terminal errored: %v", err)
	}
}

func TestUnknownAndExpired(t *testing.T) {
	net := testNet(t, 50, 9)
	dir := t.TempDir()
	m := newManager(t, Config{Dir: dir, TTL: 50 * time.Millisecond}, realExec(t, net))
	m.Start()

	if _, err := m.Get("job-does-not-exist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("job-does-not-exist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown id: err = %v, want ErrNotFound", err)
	}

	snap, err := m.Submit(surveySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, snap.ID)
	// Deterministic expiry: run one GC pass "in the far future".
	m.gcOnce(time.Now().Add(time.Hour))
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired id: err = %v, want ErrExpired", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snap.ID+fileSuffix)); !os.IsNotExist(err) {
		t.Fatalf("journal file survived GC: %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	dir := t.TempDir()
	// No Start: the queue never drains.
	m := newManager(t, Config{Dir: dir, QueueDepth: 1}, realExec(t, testNet(t, 10, 1)))
	if _, err := m.Submit(surveySpec(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(surveySpec(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("rejected submit left %d journal files, want 1", len(ents))
	}
}

func TestTransientBandRetry(t *testing.T) {
	defer faultinject.Reset()
	flaky := fmt.Errorf("disk hiccup: %w", experiment.ErrTransient)
	var fired atomic.Int64
	remove := faultinject.Set(faultinject.JobBand, func() error {
		if fired.Add(1) <= 2 {
			return flaky
		}
		return nil
	})
	defer remove()
	net := testNet(t, 80, 13)
	m := newManager(t, Config{}, realExec(t, net))
	m.retry = experiment.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	m.Start()
	spec := surveySpec(5)
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done after retries", final.State, final.Err)
	}
	if want := wholeGrid(t, net, spec); final.Result.Stats[0] != want[0] {
		t.Fatal("retried job diverged from library result")
	}
}

func TestTransientRetriesExhausted(t *testing.T) {
	defer faultinject.Reset()
	flaky := fmt.Errorf("still down: %w", experiment.ErrTransient)
	remove := faultinject.Set(faultinject.JobBand, faultinject.Error(flaky))
	defer remove()
	m := newManager(t, Config{}, realExec(t, testNet(t, 30, 2)))
	m.retry = experiment.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	m.Start()
	snap, err := m.Submit(surveySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Err, "band 0") || !strings.Contains(final.Err, "still down") {
		t.Fatalf("error %q lacks band/cause", final.Err)
	}
}

func TestPanicFailsOnlyThatJob(t *testing.T) {
	defer faultinject.Reset()
	var fires atomic.Int64
	remove := faultinject.Set(faultinject.JobPanic, func() error {
		fires.Add(1)
		panic("job worker bug")
	})
	net := testNet(t, 60, 17)
	m := newManager(t, Config{}, realExec(t, net))
	m.Start()
	snap, err := m.Submit(surveySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Err, "panic in band 0") {
		t.Fatalf("error %q lacks panic band", final.Err)
	}
	if fires.Load() != 1 {
		t.Fatalf("panicking band fired %d times: panics must never retry", fires.Load())
	}
	remove()
	// The manager (and its worker pool) must still run jobs to done.
	spec := surveySpec(5)
	again, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, again.ID); got.State != StateDone {
		t.Fatalf("post-panic job state = %s (err %q), want done", got.State, got.Err)
	}
}

func TestJournalWriteFailureDegradesToMemoryOnly(t *testing.T) {
	defer faultinject.Reset()
	errDisk := errors.New("disk full")
	remove := faultinject.Set(faultinject.JobJournalWrite, faultinject.Error(errDisk))
	dir := t.TempDir()
	net := testNet(t, 60, 23)
	m := newManager(t, Config{Dir: dir}, realExec(t, net))
	m.Start()
	spec := surveySpec(5)
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit must degrade, not fail: %v", err)
	}
	if !errors.Is(m.JournalErr(), errDisk) {
		t.Fatalf("JournalErr = %v, want disk full", m.JournalErr())
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("memory-only job state = %s (err %q), want done", final.State, final.Err)
	}
	if final.Durable {
		t.Fatal("degraded job should not report Durable")
	}
	if want := wholeGrid(t, net, spec); final.Result.Stats[0] != want[0] {
		t.Fatal("memory-only job diverged from library result")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("degraded submit left %d files on disk", len(ents))
	}
	// Healing: with the fault gone, the next job journals and clears the
	// degradation.
	remove()
	again, err := m.Submit(surveySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, again.ID); got.State != StateDone || !got.Durable {
		t.Fatalf("healed job = %+v, want durable done", got)
	}
	if m.JournalErr() != nil {
		t.Fatalf("JournalErr = %v after heal, want nil", m.JournalErr())
	}
}

func TestReplayQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "job-bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"garbage\n{\"more\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 40, 29)
	m := newManager(t, Config{Dir: dir}, realExec(t, net))
	m.Start()
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt journal not quarantined: %v", err)
	}
	// The manager still works.
	snap, err := m.Submit(surveySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, snap.ID); got.State != StateDone {
		t.Fatalf("state = %s, want done", got.State)
	}
}

func TestReplayRestoresTerminalResult(t *testing.T) {
	dir := t.TempDir()
	net := testNet(t, 70, 31)
	m1 := newManager(t, Config{Dir: dir}, realExec(t, net))
	m1.Start()
	snap, err := m1.Submit(surveySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m1, snap.ID)
	m1.Close()

	m2 := newManager(t, Config{Dir: dir}, realExec(t, net))
	m2.Start()
	got, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatalf("restored terminal job: %v", err)
	}
	if got.State != StateDone || got.Result == nil || got.Result.Stats[0] != final.Result.Stats[0] {
		t.Fatalf("restored snapshot %+v != original %+v", got, final)
	}
	if m2.Resumes() != 0 {
		t.Fatalf("terminal restore counted as resume: %d", m2.Resumes())
	}
}

func TestSubscribeStreamsBandsAndCloses(t *testing.T) {
	net := testNet(t, 60, 37)
	m := newManager(t, Config{}, realExec(t, net))
	snap, err := m.Submit(surveySpec(6))
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe before Start so no event can be missed.
	first, ch, stop, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if first.State != StateQueued {
		t.Fatalf("initial snapshot state = %s, want queued", first.State)
	}
	m.Start()
	// One event per band, in band order, even though the grid of 6 runs
	// as two row groups of 3: each band carries its group's wall time.
	var bands []Event
	var last Event
	for ev := range ch {
		if ev.Type == EventBand {
			if ev.Stats == nil || ev.Slot != 0 || ev.Band != len(bands) || ev.BandsDone != len(bands)+1 || ev.ElapsedNS <= 0 {
				t.Fatalf("band event malformed: %+v", ev)
			}
			bands = append(bands, ev)
		}
		last = ev
	}
	if len(bands) != 6 {
		t.Fatalf("saw %d band events, want 6", len(bands))
	}
	for _, b := range []int{1, 2, 4, 5} {
		if bands[b].ElapsedNS != bands[b-1].ElapsedNS {
			t.Fatalf("bands %d and %d of one group report wall times %d and %d", b-1, b, bands[b-1].ElapsedNS, bands[b].ElapsedNS)
		}
	}
	if last.Type != EventState || last.State != StateDone {
		t.Fatalf("final event = %+v, want done state event", last)
	}
	// Subscribing to a terminal job yields a closed channel immediately.
	final, ch2, stop2, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if final.State != StateDone {
		t.Fatalf("terminal subscribe state = %s", final.State)
	}
	if _, open := <-ch2; open {
		t.Fatal("terminal subscribe channel should be closed")
	}
}

// TestSubscribeHoldsAGroupBurst: a row group emits all its band events
// at once, so a subscriber's buffer must hold one group's burst even
// when that exceeds the 1024 events a small job gets. 21 θ over a grid
// of 100 run as groups of 50 rows: bursts of 1050 band events. The
// listener drains only between the groups.
func TestSubscribeHoldsAGroupBurst(t *testing.T) {
	net := testNet(t, 100, 43)
	thetas := make([]float64, 21)
	for i := range thetas {
		thetas[i] = 0.2 + 0.02*float64(i)
	}
	spec := Spec{Kind: KindSweep, Deployment: "dep", ThetasPi: thetas, Grid: 100}
	firstEmitted, resume := make(chan struct{}), make(chan struct{})
	exec := realExec(t, net)
	m := newManager(t, Config{}, func(s Spec) (BandRunner, error) {
		run, err := exec(s)
		return func(ctx context.Context, rowLo, rowHi int) ([]core.RegionStats, error) {
			if rowLo > 0 {
				close(firstEmitted)
				select {
				case <-resume:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return run(ctx, rowLo, rowHi)
		}, err
	})
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, stop, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	m.Start()
	<-firstEmitted
	bands := 0
	for drained := false; !drained; {
		select {
		case ev := <-ch:
			if ev.Type == EventBand {
				bands++
			}
		default:
			drained = true
		}
	}
	if want := 21 * 50; bands != want {
		t.Fatalf("first group delivered %d band events, want %d", bands, want)
	}
	close(resume)
	for ev := range ch {
		if ev.Type == EventBand {
			bands++
		}
	}
	if bands != spec.Bands() {
		t.Fatalf("saw %d band events, want %d", bands, spec.Bands())
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := newManager(t, Config{}, realExec(t, testNet(t, 10, 1)))
	m.Close()
	if _, err := m.Submit(surveySpec(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
