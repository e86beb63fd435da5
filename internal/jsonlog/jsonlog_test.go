package jsonlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type testHeader struct {
	Version int `json:"version"`
}

type testRecord struct {
	K string `json:"k"`
	N int    `json:"n,omitempty"`
}

func checkHeader(h testHeader) error {
	if h.Version != 1 {
		return errors.New("unsupported version")
	}
	return nil
}

// replayAll replays data, rejecting records with a negative N, and
// returns the records and the intact prefix length.
func replayAll(data []byte) ([]testRecord, int64, error) {
	var recs []testRecord
	good, err := Replay(data, checkHeader, func(r testRecord) error {
		if r.N < 0 {
			return errors.New("negative n")
		}
		recs = append(recs, r)
		return nil
	})
	return recs, good, err
}

const head = `{"version":1}` + "\n"

func TestDecode(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{`{"k":"a","n":1}`, true},
		{" {\"k\":\"a\"} \t\r", true},
		{`{"k":"a"}{"k":"b"}`, false},
		{`{"k":"a"}}`, false},
		{`{"k":"a"} 5`, false},
		{`{"k":"a","extra":1}`, false},
		{`{"k":"a"`, false},
		{``, false},
	} {
		var r testRecord
		if err := Decode([]byte(tc.line), &r); (err == nil) != tc.ok {
			t.Errorf("Decode(%q) = %v, want ok=%v", tc.line, err, tc.ok)
		}
	}
}

func TestReplay(t *testing.T) {
	a := `{"k":"a"}` + "\n"
	b := `{"k":"b","n":2}` + "\n"
	for _, tc := range []struct {
		name    string
		data    string
		recs    int
		good    int // -1: the whole input
		corrupt bool
	}{
		{"header only", head, 0, -1, false},
		{"records", head + a + b, 2, -1, false},
		{"blank lines", head + "\n" + a + "  \n" + b + "\n", 2, -1, false},
		{"unterminated final line", head + a + b[:len(b)-1], 2, -1, false},
		{"torn final line", head + a + b[:5], 1, len(head + a), false},
		{"undecodable final line", head + a + "{oops\n", 1, len(head + a), false},
		{"empty", "", 0, 0, true},
		{"bad header", "{oops\n" + a, 0, 0, true},
		{"rejected header", `{"version":2}` + "\n" + a, 0, 0, true},
		{"unterminated header", `{"version":1}`, 0, -1, false},
		{"interior damage", head + "{oops\n" + a, 0, 0, true},
		{"damage before blank tail", head + a + "{oops\n\n", 0, 0, true},
		{"rejected final record", head + a + `{"k":"c","n":-1}` + "\n", 0, 0, true},
		{"rejected unterminated record", head + a + `{"k":"c","n":-1}`, 0, 0, true},
	} {
		recs, good, err := replayAll([]byte(tc.data))
		if tc.corrupt {
			if err == nil {
				t.Errorf("%s: accepted, want corruption", tc.name)
			}
			continue
		}
		want := int64(tc.good)
		if tc.good < 0 {
			want = int64(len(tc.data))
		}
		if err != nil || len(recs) != tc.recs || good != want {
			t.Errorf("%s: %d records, good %d, err %v; want %d records, good %d", tc.name, len(recs), good, err, tc.recs, want)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reopen replays the file at path and reopens it for appending.
func reopen(t *testing.T, path string) *Log[testRecord] {
	t.Helper()
	_, good, err := replayAll(readFile(t, path))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Reopen[testRecord](path, good)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestCreateAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Create[testRecord](path, testHeader{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []testRecord{{K: "a"}, {K: "b", N: 2}, {K: "c", N: 3}}
	if err := l.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(want[1:]...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data := readFile(t, path)
	if l.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, file has %d bytes", l.Size(), len(data))
	}
	recs, good, err := replayAll(data)
	if err != nil || good != int64(len(data)) || !reflect.DeepEqual(recs, want) {
		t.Fatalf("replay = %+v, good %d, err %v", recs, good, err)
	}
	if err := l.Append(want[0]); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Append after Close = %v, want os.ErrClosed", err)
	}
}

// TestReopenTruncatesTornTail: a torn tail is cut before the next
// append, so the append does not land after garbage.
func TestReopenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	intact := head + `{"k":"a"}` + "\n"
	if err := os.WriteFile(path, []byte(intact+`{"k":"b","n`), 0o644); err != nil {
		t.Fatal(err)
	}
	l := reopen(t, path)
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(intact)) || l.Size() != st.Size() {
		t.Fatalf("after Reopen: stat %v %v, Size %d; want %d bytes", st, err, l.Size(), len(intact))
	}
	if err := l.Append(testRecord{K: "c"}); err != nil {
		t.Fatal(err)
	}
	recs, _, err := replayAll(readFile(t, path))
	if err != nil || !reflect.DeepEqual(recs, []testRecord{{K: "a"}, {K: "c"}}) {
		t.Fatalf("replay after append = %+v, %v", recs, err)
	}
}

// TestReopenTerminatesFinalLine: a valid final line without its newline
// is kept and terminated, so the next append starts a fresh line.
func TestReopenTerminatesFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	data := head + `{"k":"a"}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	l := reopen(t, path)
	if l.Size() != int64(len(data)+1) {
		t.Fatalf("Size = %d, want %d", l.Size(), len(data)+1)
	}
	if err := l.Append(testRecord{K: "b"}); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	if want := data + "\n" + `{"k":"b"}` + "\n"; string(got) != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// TestFailedAppendLeavesSize: an append that fails leaves the file at
// its size before the append, and the log keeps working.
func TestFailedAppendLeavesSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Create[testRecord](path, testHeader{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord{K: "a"}); err != nil {
		t.Fatal(err)
	}
	before := readFile(t, path)
	if err := appendOverLimit(t, l, testRecord{K: string(bytes.Repeat([]byte("x"), 8192))}); err == nil {
		t.Fatal("append past the file size limit succeeded")
	}
	if got := readFile(t, path); !bytes.Equal(got, before) || l.Size() != int64(len(before)) {
		t.Fatalf("failed append left %d bytes (Size %d), want %d", len(got), l.Size(), len(before))
	}
	if err := l.Append(testRecord{K: "b"}); err != nil {
		t.Fatal(err)
	}
	recs, _, err := replayAll(readFile(t, path))
	if err != nil || !reflect.DeepEqual(recs, []testRecord{{K: "a"}, {K: "b"}}) {
		t.Fatalf("replay = %+v, %v", recs, err)
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "image.jsonl")
	for _, content := range []string{"first\n", "second\n"} {
		if err := WriteAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); string(got) != content {
			t.Fatalf("file = %q, want %q", got, content)
		}
	}
	// A failed replace (the target is a non-empty directory) leaves the
	// old state and no temporary file.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("WriteAtomic over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"blocked", "image.jsonl"}) {
		t.Fatalf("directory holds %v, want only blocked and image.jsonl", names)
	}
}

func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Create[testRecord](path, testHeader{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord{K: "a"}, testRecord{K: "b"}); err != nil {
		t.Fatal(err)
	}
	image := head + `{"k":"b"}` + "\n"
	if err := l.Rewrite([]byte(image)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord{K: "c"}); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, path)
	if want := image + `{"k":"c"}` + "\n"; string(data) != want || l.Size() != int64(len(want)) {
		t.Fatalf("file = %q (Size %d), want %q", data, l.Size(), want)
	}
}

// FuzzReplay holds Replay to its contract on arbitrary input: on any
// accepted image the intact prefix ends on a line boundary, and
// replaying exactly that prefix — what a reopened log holds after the
// torn tail is cut — gives the same records and the same prefix.
func FuzzReplay(f *testing.F) {
	a := `{"k":"a"}` + "\n"
	f.Add([]byte(head))
	f.Add([]byte(head + a + `{"k":"b","n":2}` + "\n"))
	f.Add([]byte(head + a + `{"k":"b","n"`))
	f.Add([]byte(head + a + `{"k":"b"}`))
	f.Add([]byte(head + "\n\n" + a + "\n"))
	f.Add([]byte(head + "{oops\n" + a))
	f.Add([]byte(head + a + `{"k":"c","n":-1}` + "\n"))
	f.Add([]byte(head + `{"k":"a"}{"k":"b"}` + "\n"))
	f.Add([]byte(`{"version":2}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := replayAll(data)
		if err != nil {
			return
		}
		if good <= 0 || good > int64(len(data)) {
			t.Fatalf("good = %d outside (0, %d]", good, len(data))
		}
		if good < int64(len(data)) && data[good-1] != '\n' {
			t.Fatalf("good = %d is not on a line boundary", good)
		}
		recs2, good2, err := replayAll(data[:good])
		if err != nil {
			t.Fatalf("replay of the intact prefix failed: %v", err)
		}
		if good2 != good || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("replay of the intact prefix diverged: good %d/%d, records %+v vs %+v", good2, good, recs2, recs)
		}
	})
}
