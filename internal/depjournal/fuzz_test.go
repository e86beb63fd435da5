package depjournal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay fuzzes the journal replay parser: it must never crash, and
// on any accepted image the invariants the server relies on must hold —
// every record has an id and a known op, the intact-prefix length is
// within the input, and a compaction-style snapshot of the linked
// per-deployment state (registrations last-wins, mutations in order,
// foldable deployments folded) re-parses to an equivalent journal, so
// torn-line, duplicate-id, and mutation-interleaved inputs round-trip
// through compaction without drift.
func FuzzReplay(f *testing.F) {
	head := `{"version":1,"kind":"fvcd/deployments"}` + "\n"
	f.Add([]byte(head))
	f.Add([]byte(head + `{"id":"aaaa","n":10,"profile":"1:0.1:0.5","seed":7}` + "\n"))
	f.Add([]byte(head + `{"id":"bbbb","torus":2,"cameras":[{"x":0.5,"y":0.5,"orient":1,"radius":0.1,"aperture":0.7}]}` + "\n"))
	// Torn final line.
	f.Add([]byte(head + `{"id":"aaaa","n":1}` + "\n" + `{"id":"bbbb","n":2`))
	// Duplicate ids.
	f.Add([]byte(head + `{"id":"aaaa","n":1}` + "\n" + `{"id":"aaaa","n":2}` + "\n"))
	// Mutations interleaved with registrations.
	f.Add([]byte(head +
		`{"id":"aaaa","cameras":[{"x":0.1,"y":0.2,"orient":0,"radius":0.1,"aperture":0.5},{"x":0.7,"y":0.7,"orient":1,"radius":0.2,"aperture":1}]}` + "\n" +
		`{"id":"aaaa","op":"reaim","reaim":[{"i":0,"orient":2.5}]}` + "\n" +
		`{"id":"aaaa","op":"remove","remove":[1]}` + "\n" +
		`{"id":"aaaa","op":"add","cameras":[{"x":0.4,"y":0.4,"orient":-1,"radius":0.15,"aperture":0.9}]}` + "\n"))
	// Duplicate registration resetting a mutation history (last wins).
	f.Add([]byte(head +
		`{"id":"aaaa","cameras":[{"x":0.1,"y":0.2,"radius":0.1,"aperture":0.5}]}` + "\n" +
		`{"id":"aaaa","op":"remove","remove":[0]}` + "\n" +
		`{"id":"aaaa","cameras":[{"x":0.3,"y":0.3,"radius":0.1,"aperture":0.5}]}` + "\n"))
	// Torn final mutation line.
	f.Add([]byte(head + `{"id":"aaaa","n":1}` + "\n" + `{"id":"aaaa","op":"remove","remove":[0`))
	// A folded snapshot record.
	f.Add([]byte(head + `{"id":"aaaa","cameras":[{"x":0.1,"y":0.2,"radius":0.1,"aperture":0.5}],"folded":true,"baseVersion":4}` + "\n"))
	// Unknown op (must be refused or torn-dropped, never linked).
	f.Add([]byte(head + `{"id":"aaaa","op":"explode"}` + "\n"))
	// Garbage.
	f.Add([]byte("not a journal"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, lines, good, err := parse(data)
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good = %d outside [0, %d]", good, len(data))
		}
		if int64(len(recs)) != lines {
			t.Fatalf("lines = %d but %d records", lines, len(recs))
		}
		for i, r := range recs {
			if r.ID == "" {
				t.Fatalf("record %d accepted without id", i)
			}
			if r.validate() != nil {
				t.Fatalf("record %d accepted with invalid op %q", i, r.Op)
			}
		}

		// Link the records exactly as Open does. A mutation without a
		// prior registration makes the whole image corrupt at Open level;
		// nothing further to check for such inputs.
		link := &Journal{ids: make(map[string]int)}
		for _, r := range recs {
			if err := link.link(r); err != nil {
				return
			}
		}

		// Compaction-style snapshot: fold deployments whose mutations
		// fold (explicit camera bases only — no materialize hook here),
		// keep the rest verbatim. The snapshot must re-parse and re-link
		// to an equivalent journal.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(header{Version: Version, Kind: Kind}); err != nil {
			t.Fatal(err)
		}
		type wantDep struct {
			reg  Record
			muts []Record
		}
		var want []wantDep
		for _, d := range link.deps {
			w := wantDep{reg: d.reg, muts: d.muts}
			if len(d.muts) > 0 && len(d.reg.Cameras) > 0 {
				if folded, ok := foldDeployment(d.reg, d.muts, nil); ok {
					if !folded.Folded {
						t.Fatalf("fold of %s not marked Folded", d.reg.ID)
					}
					if folded.BaseVersion != d.reg.BaseVersion+uint64(len(d.muts)) {
						t.Fatalf("fold of %s: BaseVersion %d, want %d",
							d.reg.ID, folded.BaseVersion, d.reg.BaseVersion+uint64(len(d.muts)))
					}
					if len(folded.Cameras) == 0 {
						t.Fatalf("fold of %s accepted an empty camera list", d.reg.ID)
					}
					w = wantDep{reg: folded}
				}
			}
			if err := enc.Encode(w.reg); err != nil {
				// encoding/json never produces NaN/Inf from valid JSON input,
				// so an encode failure here is a real bug.
				t.Fatalf("snapshot encode: %v", err)
			}
			for i := range w.muts {
				if err := enc.Encode(w.muts[i]); err != nil {
					t.Fatalf("snapshot encode: %v", err)
				}
			}
			want = append(want, w)
		}

		recs2, _, good2, err := parse(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot does not re-parse: %v", err)
		}
		if good2 != int64(buf.Len()) {
			t.Fatalf("snapshot has a torn tail: good %d of %d", good2, buf.Len())
		}
		link2 := &Journal{ids: make(map[string]int)}
		for _, r := range recs2 {
			if err := link2.link(r); err != nil {
				t.Fatalf("snapshot does not re-link: %v", err)
			}
		}
		if len(link2.deps) != len(want) {
			t.Fatalf("round trip: %d deployments, want %d", len(link2.deps), len(want))
		}
		jsonEq := func(a, b any) bool {
			ab, _ := json.Marshal(a)
			bb, _ := json.Marshal(b)
			return bytes.Equal(ab, bb)
		}
		for i, w := range want {
			d := link2.deps[i]
			if !jsonEq(d.reg, w.reg) || len(d.muts) != len(w.muts) {
				t.Fatalf("deployment %d drifted: %+v vs %+v", i, d, w)
			}
			for k := range w.muts {
				if !jsonEq(d.muts[k], w.muts[k]) {
					t.Fatalf("deployment %d mutation %d drifted", i, k)
				}
			}
		}
	})
}

// FuzzApply drives one journal through random interleavings of the
// ways records arrive — owner mutation appends, mirrored tails that may
// be stale, gapped or contiguous, and full per-id images, folded or
// verbatim — with compactions and reopens mixed in, against a model of
// the version gate. Each deployment has one authoritative history (the
// owner's), and every batch is a slice of it. After every step: the
// outcome is the one the model predicts, no version decreases, a
// refused batch leaves the file byte-identical, every digest equals the
// canonical digest of the history prefix the model says is held, and a
// copy of the file reopened from disk digests exactly like the live
// journal.
func FuzzApply(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 0, 2, 1, 0, 2, 2, 1, 4, 0, 9, 3, 0})
	f.Add([]byte{0, 1, 2, 0, 2, 1, 5, 1, 1, 1, 4, 2, 1, 0, 7, 3, 2, 4, 1})
	f.Add([]byte{2, 2, 9, 1, 1, 2, 4, 0, 2, 2, 0, 3, 1, 4, 2, 1, 2, 1, 1, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "deployments.jsonl")
		j, err := Open(path, Options{CompactBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { j.Close() }()

		ids := []string{"aaaa", "bbbb", "cccc"}
		// history[k] is deployment k's authoritative mutation history;
		// record i is stamped with the version it produces, i+1.
		history := make([][]Record, len(ids))
		extend := func(k int, upto uint64) {
			for v := uint64(len(history[k])) + 1; v <= upto; v++ {
				history[k] = append(history[k], Record{ID: ids[k], Op: OpReaim,
					Reaim: []ReaimOp{{I: int(v % 3), Orient: float64(v)}}, BaseVersion: v})
			}
		}
		held := map[string]uint64{} // the model: id → version held
		for len(ops) > 0 {
			op, k := next()%5, next()%len(ids)
			id := ids[k]
			cur, known := held[id]
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var batch []Record
			var want error
			var after uint64
			switch op {
			case 0, 1: // a mutation tail starting near the next version
				start := int(cur) + 1 + next()%5 - 2
				if start < 1 {
					start = 1
				}
				n := 1 + next()%3
				extend(k, uint64(start+n-1))
				batch = history[k][start-1 : start-1+n]
				after = uint64(start + n - 1)
				switch {
				case !known:
					want = ErrUnknownID
				case uint64(start) <= cur:
					want = ErrStale
				case uint64(start) > cur+1:
					want = ErrGap
				}
			case 2: // a full image of some prefix, folded or verbatim
				v := uint64(next()) % (uint64(len(history[k])) + 2)
				extend(k, v)
				reg := explicitRec(id, 3)
				batch = append([]Record{reg}, history[k][:v]...)
				if v > 0 && next()%2 == 0 {
					folded, ok := foldDeployment(reg, history[k][:v], nil)
					if !ok {
						t.Fatalf("history of %s does not fold", id)
					}
					batch = []Record{folded}
				}
				after = v
				if known && v <= cur {
					want = ErrStale
				}
			case 3:
				if err := compact(j); err != nil {
					t.Fatal(err)
				}
			case 4:
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if j, err = Open(path, Options{CompactBytes: -1}); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			}
			if batch != nil {
				if op == 0 {
					err = j.AppendMutations(id, batch)
				} else {
					err = j.Apply(id, batch)
				}
				if !errors.Is(err, want) {
					t.Fatalf("batch for %s at version %d (held %d, known %v): err %v, want %v", id, batch[0].BaseVersion, cur, known, err, want)
				}
				if err == nil {
					held[id] = after
				} else if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, before) {
					t.Fatalf("refused batch changed the file (read err %v)", err)
				}
			}

			got := j.Digests()
			if len(got) != len(held) {
				t.Fatalf("journal holds %d deployments, model %d", len(got), len(held))
			}
			for k, id := range ids {
				v, ok := held[id]
				if !ok {
					continue
				}
				d, ok := got[id]
				if !ok || d.Version != v {
					t.Fatalf("%s at version %d, model %d", id, d.Version, v)
				}
				want, err := digestDep(canonicalize(stagedDep{reg: explicitRec(id, 3), muts: history[k][:v]}, nil))
				if err != nil {
					t.Fatal(err)
				}
				if d != want {
					t.Fatalf("%s digest %+v, want the canonical digest at version %d %+v", id, d, v, want)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cp := filepath.Join(dir, "copy.jsonl")
			if err := os.WriteFile(cp, data, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(cp, Options{CompactBytes: -1})
			if err != nil {
				t.Fatalf("file does not reopen: %v", err)
			}
			reDigests := re.Digests()
			re.Close()
			if !digestsEqual(reDigests, got) {
				t.Fatalf("reopened digests %v, live %v", reDigests, got)
			}
		}
	})
}
