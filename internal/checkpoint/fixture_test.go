package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestReplayFixture resumes from a committed journal written by an
// earlier build of this package (trials recorded in the order 4, 1, 5,
// 0), so a change to the reader cannot silently stop accepting journals
// already on disk.
func TestReplayFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "out_of_order.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	h := Header{Kind: "experiment/grid", Seed: 2012, Trials: 6, Params: "n=300 theta=0.25pi"}
	j, err := Open(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Missing(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("Missing = %v, want [2 3]", got)
	}
	type result struct {
		Hits int     `json:"hits"`
		Mean float64 `json:"mean"`
	}
	for _, trial := range []int{0, 1, 4, 5} {
		var got result
		ok, err := j.Get(trial, &got)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v", trial, ok, err)
		}
		if want := (result{Hits: 10 * trial, Mean: math.Pi / float64(trial+1)}); got != want {
			t.Fatalf("trial %d = %+v, want %+v", trial, got, want)
		}
	}
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("re-serialized image differs from the fixture:\n%s\nwant:\n%s", buf.Bytes(), data)
	}
	h.Seed++
	if _, err := Open(path, h); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Open with another seed = %v, want ErrMismatch", err)
	}
}
