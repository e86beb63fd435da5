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

// TestReplayFixture resumes from two committed journals of trials 4, 1,
// 5 and 0 of one run: out_of_order.jsonl, written by an earlier build of
// this package that rewrote the whole file in trial order, and
// append_order.jsonl, whose lines are in the order 4, 1, 5, 0, as Record
// appends them. Each must read back, accept the missing trials 2 and 3
// by appending after its bytes, and read back whole on the next Open,
// so a change to the reader cannot silently stop accepting journals
// already on disk.
func TestReplayFixture(t *testing.T) {
	type result struct {
		Hits int     `json:"hits"`
		Mean float64 `json:"mean"`
	}
	want := func(trial int) result { return result{Hits: 10 * trial, Mean: math.Pi / float64(trial+1)} }
	h := Header{Kind: "experiment/grid", Seed: 2012, Trials: 6, Params: "n=300 theta=0.25pi"}
	for _, name := range []string{"out_of_order.jsonl", "append_order.jsonl"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			readBack := func(j *Journal, trials []int) {
				t.Helper()
				for _, trial := range trials {
					var got result
					ok, err := j.Get(trial, &got)
					if err != nil || !ok {
						t.Fatalf("Get(%d) = %v, %v", trial, ok, err)
					}
					if got != want(trial) {
						t.Fatalf("trial %d = %+v, want %+v", trial, got, want(trial))
					}
				}
			}
			j, err := Open(path, h)
			if err != nil {
				t.Fatal(err)
			}
			if got := j.Missing(); !reflect.DeepEqual(got, []int{2, 3}) {
				t.Fatalf("Missing = %v, want [2 3]", got)
			}
			readBack(j, []int{0, 1, 4, 5})
			for _, trial := range []int{2, 3} {
				if err := j.Record(trial, want(trial)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			resumed, err := Open(path, h)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if !resumed.Complete() {
				t.Fatalf("Missing = %v after recording 2 and 3", resumed.Missing())
			}
			readBack(resumed, []int{0, 1, 2, 3, 4, 5})
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(after, data) {
				t.Fatalf("fixture bytes are not a prefix of the resumed journal:\n%s", after)
			}

			other := h
			other.Seed++
			if _, err := Open(path, other); !errors.Is(err, ErrMismatch) {
				t.Fatalf("Open with another seed = %v, want ErrMismatch", err)
			}
		})
	}
}
