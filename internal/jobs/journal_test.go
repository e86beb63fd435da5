package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullview/internal/core"
)

func testHeader(t *testing.T, grid int) header {
	t.Helper()
	return header{
		Version:   Version,
		Kind:      FileKind,
		ID:        "job-test",
		CreatedNS: time.Unix(1700000000, 0).UnixNano(),
		Spec:      surveySpec(grid),
	}
}

func mustLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestParseJobRejectsDamage(t *testing.T) {
	hdr := mustLine(t, testHeader(t, 4))
	band0 := 0
	stats := wholeGrid(t, testNet(t, 30, 3), surveySpec(4))[0]
	band := mustLine(t, record{Band: &band0, Stats: &stats})
	term := mustLine(t, record{State: StateCancelled, FinishedNS: 1})

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad header json", []byte("{nope\n")},
		{"header wrong kind", mustLine(t, header{Version: Version, Kind: "fvcd/other", ID: "x", Spec: surveySpec(4)})},
		{"header bad spec", mustLine(t, header{Version: Version, Kind: FileKind, ID: "x", Spec: Spec{Kind: KindSurvey, Grid: 4}})},
		{"interior garbage", append(append(append([]byte{}, hdr...), []byte("{broken\n")...), band...)},
		{"band out of range", append(append([]byte{}, hdr...), mustLine(t, record{Band: intp(99), Stats: &stats})...)},
		{"band and terminal in one record", append(append([]byte{}, hdr...), mustLine(t, record{Band: &band0, Stats: &stats, State: StateDone})...)},
		{"record after terminal", append(append(append([]byte{}, hdr...), term...), band...)},
		{"done without result", append(append([]byte{}, hdr...), mustLine(t, record{State: StateDone})...)},
		{"non-terminal state record", append(append([]byte{}, hdr...), mustLine(t, record{State: StateRunning})...)},
	}
	for _, tc := range cases {
		if _, _, _, _, err := parseJob(tc.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func intp(v int) *int { return &v }

func TestParseJobTornFinalLine(t *testing.T) {
	stats := wholeGrid(t, testNet(t, 30, 3), surveySpec(4))[0]
	var buf bytes.Buffer
	buf.Write(mustLine(t, testHeader(t, 4)))
	buf.Write(mustLine(t, record{Band: intp(0), Stats: &stats}))
	buf.Write(mustLine(t, record{Band: intp(1), Stats: &stats}))
	intact := buf.Len()
	full := mustLine(t, record{Band: intp(2), Stats: &stats})
	// Every torn prefix of the final record — including a complete line
	// missing its newline being valid — must keep the intact records.
	for cut := 1; cut < len(full); cut++ {
		data := append(append([]byte{}, buf.Bytes()...), full[:cut]...)
		hdr, bands, term, good, err := parseJob(data)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if hdr.ID != "job-test" || term != nil {
			t.Fatalf("cut %d: hdr %+v term %+v", cut, hdr, term)
		}
		wantBands := 2
		wantGood := int64(intact)
		if cut == len(full)-1 {
			// All bytes but the trailing newline: a complete JSON line at
			// EOF parses fine.
			wantBands, wantGood = 3, int64(len(data))
		}
		if len(bands) != wantBands || good != wantGood {
			t.Fatalf("cut %d: bands %d good %d, want %d/%d", cut, len(bands), good, wantBands, wantGood)
		}
	}
}

func TestReopenAfterTornLineResumesCleanly(t *testing.T) {
	dir := t.TempDir()
	stats := wholeGrid(t, testNet(t, 30, 3), surveySpec(4))[0]
	hdr := testHeader(t, 4)
	var buf bytes.Buffer
	buf.Write(mustLine(t, hdr))
	buf.Write(mustLine(t, record{Band: intp(0), Stats: &stats}))
	intact := buf.Len()
	buf.WriteString(`{"band":1,"sta`) // torn mid-append
	path := filepath.Join(dir, "job-test"+fileSuffix)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, bands, _, good, err := parseJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 1 || good != int64(intact) {
		t.Fatalf("bands %d good %d, want 1/%d", len(bands), good, intact)
	}
	jf, err := reopenJobFile(path, hdr, good)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.close()
	if err := jf.append(record{Band: intp(1), Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, bands, _, good, err = parseJob(data)
	if err != nil {
		t.Fatalf("journal corrupt after reopen+append: %v", err)
	}
	if len(bands) != 2 || good != int64(len(data)) {
		t.Fatalf("after repair: bands %d good %d/%d", len(bands), good, len(data))
	}
}

// TestResumeAfterUnterminatedBand: a crash can persist a band record
// but not its trailing newline. The restarted job must append its next
// bands on fresh lines, so a second restart resumes the job again
// instead of quarantining its journal as corrupt.
func TestResumeAfterUnterminatedBand(t *testing.T) {
	net := testNet(t, 150, 7)
	dir := t.TempDir()
	spec := surveySpec(6)
	exec := realExec(t, net)
	run, err := exec(spec)
	if err != nil {
		t.Fatal(err)
	}
	hdr := header{Version: Version, Kind: FileKind, ID: "job-newline", CreatedNS: time.Now().UnixNano(), Spec: spec}
	var buf bytes.Buffer
	buf.Write(mustLine(t, hdr))
	for b := 0; b < 2; b++ {
		stats, err := run(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(mustLine(t, record{Band: intp(b), Stats: &stats}))
	}
	path := filepath.Join(dir, hdr.ID+fileSuffix)
	if err := os.WriteFile(path, bytes.TrimSuffix(buf.Bytes(), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	// First restart: journal bands 2 and 3, then stop at band 4 the way
	// a kill would (no terminal record).
	stopAt4 := func(s Spec) (BandRunner, error) {
		r, err := exec(s)
		return func(ctx context.Context, band int) (core.RegionStats, error) {
			if band >= 4 {
				<-ctx.Done()
				return core.RegionStats{}, ctx.Err()
			}
			return r(ctx, band)
		}, err
	}
	m1, err := New(quietConfig(Config{Dir: dir}), stopAt4)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	waitFor(t, "bands 2 and 3 journaled", func() bool { return m1.BandsDone() == 2 })
	m1.Close()

	// Second restart: the job resumes from four bands and finishes
	// bit-identical to an uninterrupted survey.
	m2 := newManager(t, Config{Dir: dir}, exec)
	m2.Start()
	snap, err := m2.Get(hdr.ID)
	if err != nil {
		t.Fatalf("job lost on the second restart: %v", err)
	}
	if !snap.Resumed || snap.BandsDone < 4 {
		t.Fatalf("second restart restored %+v, want 4 journaled bands", snap)
	}
	final := waitTerminal(t, m2, hdr.ID)
	if want := wholeGrid(t, net, spec); final.State != StateDone || final.Result.Stats[0] != want[0] {
		t.Fatalf("resumed job ended %+v, want result %+v", final, want)
	}
}

func TestCompactionIsAtomicImage(t *testing.T) {
	dir := t.TempDir()
	stats := wholeGrid(t, testNet(t, 30, 3), surveySpec(4))[0]
	hdr := testHeader(t, 4)
	path := filepath.Join(dir, hdr.ID+fileSuffix)
	jf, err := createJobFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if err := jf.append(record{Band: intp(b), Stats: &stats}); err != nil {
			t.Fatal(err)
		}
	}
	term := record{State: StateDone, Result: &Result{Stats: []core.RegionStats{stats}}, FinishedNS: 42}
	if err := jf.append(term); err != nil {
		t.Fatal(err)
	}
	if err := jf.compact(term); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("compacted file has %d lines, want 2", n)
	}
	_, bands, got, good, err := parseJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 0 || got == nil || got.State != StateDone || good != int64(len(data)) {
		t.Fatalf("compacted image parse: bands %d term %+v", len(bands), got)
	}
	// No temp droppings.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after compaction, want 1", len(ents))
	}
}
