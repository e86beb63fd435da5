package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testHeader(trials int) Header {
	return Header{Kind: "test/grid", Seed: 2012, Trials: trials, Params: "n=100 theta=0.25pi"}
}

func TestOpenFreshJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(5))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("fresh journal Len = %d", j.Len())
	}
	if got := j.Missing(); len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Errorf("Missing = %v", got)
	}
	// Opening never creates the file; only Record does.
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("journal file created on Open: %v", err)
	}
}

func TestRecordAndResume(t *testing.T) {
	type result struct {
		Hits int     `json:"hits"`
		Mean float64 `json:"mean"`
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(4))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]result{
		0: {Hits: 3, Mean: 0.1 + 0.2}, // a value whose shortest decimal must round-trip exactly
		2: {Hits: 7, Mean: math.Pi},
	}
	for trial, res := range want {
		if err := j.Record(trial, res); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := Open(path, testHeader(4))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Len() != 2 {
		t.Fatalf("resumed Len = %d, want 2", resumed.Len())
	}
	if got := resumed.Missing(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Missing = %v, want [1 3]", got)
	}
	for trial, res := range want {
		var got result
		ok, err := resumed.Get(trial, &got)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v", trial, ok, err)
		}
		if got != res {
			t.Errorf("trial %d round-trip = %+v, want %+v", trial, got, res)
		}
	}
	if resumed.Complete() {
		t.Error("Complete with missing trials")
	}
	resumed.Record(1, result{})
	resumed.Record(3, result{})
	if !resumed.Complete() {
		t.Error("not Complete after all trials journaled")
	}
}

func TestOpenMismatchedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, 1); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]Header{
		"seed":   {Kind: "test/grid", Seed: 99, Trials: 3, Params: "n=100 theta=0.25pi"},
		"trials": {Kind: "test/grid", Seed: 2012, Trials: 4, Params: "n=100 theta=0.25pi"},
		"kind":   {Kind: "test/point", Seed: 2012, Trials: 3, Params: "n=100 theta=0.25pi"},
		"params": {Kind: "test/grid", Seed: 2012, Trials: 3, Params: "n=200 theta=0.25pi"},
	} {
		if _, err := Open(path, h); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s mismatch: err = %v, want ErrMismatch", name, err)
		}
	}
}

func TestRecordConflicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, "a"); err != nil {
		t.Errorf("identical re-record: %v", err)
	}
	if err := j.Record(1, "b"); err == nil {
		t.Error("conflicting re-record succeeded")
	}
	if err := j.Record(3, "x"); !errors.Is(err, ErrBadTrial) {
		t.Errorf("out-of-range trial: %v", err)
	}
	if err := j.Record(0, math.NaN()); err == nil {
		t.Error("NaN result journaled; want a marshal error")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("record after Close: %v", err)
	}
}

func TestTornFinalLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(3))
	if err != nil {
		t.Fatal(err)
	}
	j.Record(0, 10)
	j.Record(1, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: cut the file mid-way through the last line.
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Open(path, testHeader(3))
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	if resumed.Len() != 1 || !resumed.Done(0) || resumed.Done(1) {
		t.Errorf("torn journal kept %d records (done0=%v done1=%v), want intact prefix only",
			resumed.Len(), resumed.Done(0), resumed.Done(1))
	}
	// The dropped trial can be re-journaled, and it lands where the torn
	// tail was cut away.
	if err := resumed.Record(1, 20); err != nil {
		t.Errorf("re-record dropped trial: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Errorf("repaired journal = %q (%v), want %q", after, err, data)
	}
}

// TestOpenRefusalLeavesFileUntouched: a journal Open refuses — another
// run's, a corrupt one, or one holding a trial out of range — keeps its
// bytes.
func TestOpenRefusalLeavesFileUntouched(t *testing.T) {
	hdr := `{"version":1,"kind":"test/grid","seed":2012,"trials":3,"params":"n=100 theta=0.25pi"}` + "\n"
	other := testHeader(3)
	other.Seed++
	for name, tc := range map[string]struct {
		content string
		h       Header
		want    error
	}{
		"mismatch":     {hdr + `{"trial":0,"result":1}` + "\n" + `{"trial":1,"res`, other, ErrMismatch},
		"corrupt":      {hdr + `{"trial":0,"res` + "\n" + `{"trial":1,"result":1}` + "\n", testHeader(3), ErrCorrupt},
		"out-of-range": {hdr + `{"trial":3,"result":1}` + "\n" + `{"trial":1,"res`, testHeader(3), ErrBadTrial},
	} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, tc.h); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if after, err := os.ReadFile(path); err != nil || string(after) != tc.content {
			t.Errorf("%s: refused journal became %q (%v)", name, after, err)
		}
	}
}

func TestInteriorCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(3))
	if err != nil {
		t.Fatal(err)
	}
	j.Record(0, 10)
	j.Record(1, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	lines[1] = []byte(`{"trial": garbage`)
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testHeader(3)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("interior corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty":       "",
		"not-json":    "hello world\n",
		"bad-version": `{"version":99,"kind":"test/grid","seed":2012,"trials":3}` + "\n",
	} {
		path := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, testHeader(3)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	const trials = 64
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(trials))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Record(i, i*i); err != nil {
				t.Errorf("Record(%d): %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if !j.Complete() {
		t.Fatalf("Len = %d after %d concurrent records", j.Len(), trials)
	}
	resumed, err := Open(path, testHeader(trials))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		var v int
		if ok, err := resumed.Get(i, &v); !ok || err != nil || v != i*i {
			t.Fatalf("Get(%d) = %v, %v, %d", i, ok, err, v)
		}
	}
}

// TestRecordAppendsOneLine pins the append path: the first Record
// creates the file with its header, every Record adds exactly one line
// and leaves the file before the call a byte prefix of the file after,
// and an identical re-record writes nothing.
func TestRecordAppendsOneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(3))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var before []byte
	for _, rec := range []struct {
		trial  int
		result string
		lines  int
	}{{2, "z", 2}, {0, "a", 3}, {0, "a", 3}, {1, "m", 4}} {
		if err := j.Record(rec.trial, rec.result); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, before) {
			t.Fatalf("Record(%d) rewrote the file: %q is not a prefix of %q", rec.trial, before, after)
		}
		if got := bytes.Count(after, []byte("\n")); got != rec.lines || after[len(after)-1] != '\n' {
			t.Fatalf("after Record(%d): %d lines in %q, want %d", rec.trial, got, after, rec.lines)
		}
		before = after
	}
	if !strings.HasPrefix(string(before), `{"version":1`) {
		t.Errorf("missing header line: %q", before)
	}
	if want := `{"trial":1,"result":"m"}` + "\n"; !strings.HasSuffix(string(before), want) {
		t.Errorf("last line of %q, want %q", before, want)
	}
}

func TestRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	j.Record(0, 1)
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("journal file survives Remove")
	}
	// Removing a journal that was never written is fine too.
	j2, _ := Open(filepath.Join(t.TempDir(), "never.jsonl"), testHeader(2))
	if err := j2.Remove(); err != nil {
		t.Errorf("Remove of unwritten journal: %v", err)
	}
}
