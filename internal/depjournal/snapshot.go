package depjournal

import (
	"encoding/json"
	"fmt"
	"io"
)

// stagedDep is one deployment staged for snapshot encoding: the values
// compaction would write for it. Record values and mutation slices are
// never modified in place after they enter the journal (appends only
// extend, compaction replaces whole slices), so a stagedDep copied
// under the journal lock remains a consistent view after the lock is
// released.
type stagedDep struct {
	reg        Record
	muts       []Record
	unfoldable bool
}

// stageFoldable reports whether a staged deployment's mutations could
// fold into its registration.
func stageFoldable(d stagedDep, materialize MaterializeFunc) bool {
	return len(d.muts) > 0 && !d.unfoldable &&
		(len(d.reg.Cameras) > 0 || materialize != nil)
}

// stageLocked copies the per-deployment state for snapshot encoding.
// Caller holds j.mu; the copies stay valid after it is released.
func (j *Journal) stageLocked() []stagedDep {
	deps := make([]stagedDep, len(j.deps))
	for i, d := range j.deps {
		deps[i] = stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}
	}
	return deps
}

// canonicalize reduces one staged deployment to its snapshot form: a
// single Folded registration when the mutations fold, the registration
// and mutations verbatim otherwise. This is the canonical shape of a
// deployment's record stream — compaction writes it, SnapshotID streams
// it, and the per-deployment content digests hash it — so two replicas
// holding the same logical state produce identical bytes regardless of
// how their journal files got there (live appends, mirror batches, a
// snapshot install, or any compaction history).
func canonicalize(d stagedDep, materialize MaterializeFunc) stagedDep {
	if stageFoldable(d, materialize) {
		if folded, ok := foldDeployment(d.reg, d.muts, materialize); ok {
			return stagedDep{reg: folded}
		}
		d.unfoldable = true
	}
	return d
}

// encodeDep writes one canonicalized deployment's record lines to enc
// and returns the line count.
func encodeDep(enc *json.Encoder, st stagedDep) (int64, error) {
	if err := enc.Encode(st.reg); err != nil {
		return 0, fmt.Errorf("depjournal: encode record %s: %w", st.reg.ID, err)
	}
	lines := int64(1)
	for i := range st.muts {
		if err := enc.Encode(st.muts[i]); err != nil {
			return 0, fmt.Errorf("depjournal: encode record %s: %w", st.reg.ID, err)
		}
		lines++
	}
	return lines, nil
}

// encodeSnapshot writes the compacted snapshot image of deps to w:
// the journal header, then each deployment in canonical form. This is
// THE compaction format — Compact calls it to build the replacement
// file, SnapshotID calls it on one deployment to stream that id's part
// of the same bytes to a peer — so a per-id snapshot always replays
// through Open exactly like a freshly compacted journal. Returns the
// staged states as written (so compaction can commit them) and the
// record line count.
func encodeSnapshot(w io.Writer, deps []stagedDep, materialize MaterializeFunc) ([]stagedDep, int64, error) {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header{Version: Version, Kind: Kind}); err != nil {
		return nil, 0, fmt.Errorf("depjournal: encode header: %w", err)
	}
	var lines int64
	out := make([]stagedDep, len(deps))
	for di, d := range deps {
		st := canonicalize(d, materialize)
		n, err := encodeDep(enc, st)
		if err != nil {
			return nil, 0, err
		}
		lines += n
		out[di] = st
	}
	return out, lines, nil
}

// countWriter counts the bytes passed through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// SnapshotID streams the snapshot image of a single deployment — the
// journal header plus that id's canonical record lines, exactly the
// lines Compact would write for it — without pausing appends: the
// deployment's state is copied under the lock (cheap — record values
// and slice headers, no camera-list deep copies), then the lock is
// released and encoding runs against the copy, so appends and
// compactions that land mid-stream affect neither its consistency nor
// its content. Unlike compaction it commits nothing: the file and the
// in-memory state are untouched.
//
// The image replays through ParseSnapshot (or Open) on its own; it is
// what the anti-entropy reconciler and a booting replica fetch to
// install one deployment. ErrNotFound is returned, with nothing written
// to w, when the id is not journaled. Returns the bytes written.
func (j *Journal) SnapshotID(w io.Writer, id string) (int64, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	i, ok := j.ids[id]
	if !ok {
		j.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	d := j.deps[i]
	st := stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}
	materialize := j.materialize
	j.mu.Unlock()

	cw := &countWriter{w: w}
	_, _, err := encodeSnapshot(cw, []stagedDep{st}, materialize)
	return cw.n, err
}

// ParseSnapshot decodes a complete snapshot image — the bytes
// SnapshotID streamed — into its records, refusing every image Open
// would refuse. Unlike Open, a torn final line is an error here, not
// tolerance: a fetched snapshot that does not parse to its last byte
// was truncated in transfer and must be refused, never half-applied.
func ParseSnapshot(data []byte) ([]Record, error) {
	recs, _, good, err := parse(data)
	if err != nil {
		return nil, err
	}
	if good != int64(len(data)) {
		return nil, fmt.Errorf("%w: truncated snapshot (%d of %d bytes parse)", ErrCorrupt, good, len(data))
	}
	scratch := &Journal{ids: make(map[string]int)}
	for _, r := range recs {
		if err := scratch.link(r); err != nil {
			return nil, err
		}
	}
	return recs, nil
}
