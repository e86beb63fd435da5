package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse throws arbitrary bytes at the journal loader: it must never
// panic, and a journal Open would accept must resume by appending —
// written to a file, opened, given one missing trial and opened again,
// it keeps its header and record set plus the new trial, and its intact
// prefix stays a byte prefix of the file.
func FuzzParse(f *testing.F) {
	valid := "{\"version\":1,\"kind\":\"test/grid\",\"seed\":2012,\"trials\":3,\"params\":\"n=5\"}\n" +
		"{\"trial\":0,\"result\":{\"hits\":3}}\n" +
		"{\"trial\":2,\"result\":[1,2,3]}\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-7])) // torn final line
	f.Add([]byte("{\"version\":1,\"kind\":\"k\",\"seed\":0,\"trials\":1}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(""))
	f.Add([]byte("{\"version\":99}\n"))
	f.Add([]byte("{\"version\":1,\"kind\":\"k\",\"seed\":0,\"trials\":1}\n{\"trial\":0,\"result\":1}{\"trial\":0,\"result\":2}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, results, good, err := parse(data)
		if err != nil || h.Trials <= 0 {
			// Open rejects a non-positive trial count; parse alone has no floor.
			return
		}
		for trial := range results {
			if trial < 0 || trial >= h.Trials {
				return // Open refuses it with ErrBadTrial
			}
		}
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, h)
		if err != nil {
			t.Fatalf("Open of an accepted image: %v\nimage:\n%s", err, data)
		}
		added := -1
		for i := 0; i < h.Trials && added < 0; i++ {
			if !j.Done(i) {
				added = i
			}
		}
		if added >= 0 {
			if err := j.Record(added, "added"); err != nil {
				t.Fatalf("Record(%d): %v", added, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		resumed, err := Open(path, h)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer resumed.Close()
		if resumed.Header() != h {
			t.Fatalf("header round-trip: %+v -> %+v", h, resumed.Header())
		}
		want := results
		if added >= 0 {
			want[added] = json.RawMessage(`"added"`)
		}
		if !reflect.DeepEqual(resumed.results, want) {
			t.Fatalf("records round-trip:\n got %q\nwant %q", resumed.results, want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, data[:good]) {
			t.Fatalf("intact prefix %q is not a prefix of the file %q", data[:good], after)
		}
	})
}
