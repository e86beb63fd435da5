package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"fullview/internal/core"
)

var fuzzStats = core.RegionStats{Points: 3, FullView: 2, Necessary: 3, Sufficient: 1, MinCovering: 4}

// FuzzReplay throws arbitrary bytes at the job-journal parser and holds
// it to its replay contract: parseJob either rejects the image as
// corrupt, or returns an intact prefix `good` such that (a) good never
// exceeds the input, (b) every restored band is inside the spec's band
// range, and (c) re-parsing data[:good] — exactly what a restart sees
// after the truncation repair — succeeds and restores the same state.
// Seeds cover the healthy shapes (fresh, banded, terminal, compacted)
// and the torn/corrupt edges, so mutation explores the neighbourhood of
// real journals rather than only noise.
func FuzzReplay(f *testing.F) {
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	hdr := header{
		Version:   Version,
		Kind:      FileKind,
		ID:        "job-fuzz",
		CreatedNS: time.Unix(1700000000, 0).UnixNano(),
		Spec:      Spec{Kind: KindSweep, Deployment: "dep", ThetasPi: []float64{0.2, 0.5}, Grid: 3},
	}
	b0, b4 := 0, 4
	band0 := mustJSON(record{Band: &b0, Stats: &fuzzStats})
	band4 := mustJSON(record{Band: &b4, Stats: &fuzzStats})
	cancelled := mustJSON(record{State: StateCancelled, FinishedNS: 9})
	failed := mustJSON(record{State: StateFailed, Error: "band 2: boom", FinishedNS: 9})
	h := mustJSON(hdr)

	f.Add([]byte{})
	f.Add(h)
	f.Add(append(append([]byte{}, h...), band0...))
	f.Add(append(append(append([]byte{}, h...), band0...), band4...))
	f.Add(append(append(append([]byte{}, h...), band0...), cancelled...))
	f.Add(append(append([]byte{}, h...), failed...))
	f.Add(append(append([]byte{}, h...), band0[:len(band0)/2]...))        // torn band
	f.Add(append(append(append([]byte{}, h...), cancelled...), band0...)) // record after terminal
	f.Add([]byte("{\"version\":999}\n"))
	f.Add(bytes.Repeat([]byte("\n"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, bands, term, good, err := parseJob(data)
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good = %d outside [0, %d]", good, len(data))
		}
		for b := range bands {
			if b < 0 || b >= hdr.Spec.Bands() {
				t.Fatalf("restored band %d outside spec range %d", b, hdr.Spec.Bands())
			}
		}
		// The truncated image must replay to the identical state: this is
		// what the restart path reads after the torn-line repair.
		hdr2, bands2, term2, good2, err2 := parseJob(data[:good])
		if err2 != nil {
			t.Fatalf("re-parse of intact prefix failed: %v", err2)
		}
		if hdr2.ID != hdr.ID || good2 != good || len(bands2) != len(bands) {
			t.Fatalf("re-parse diverged: id %q/%q good %d/%d bands %d/%d",
				hdr.ID, hdr2.ID, good, good2, len(bands), len(bands2))
		}
		if (term == nil) != (term2 == nil) {
			t.Fatal("re-parse diverged on terminal record")
		}
		if term != nil && (term.State != term2.State || term.Error != term2.Error) {
			t.Fatalf("re-parse terminal diverged: %+v vs %+v", term, term2)
		}
	})
}
