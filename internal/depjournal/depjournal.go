// Package depjournal durably records fvcd deployment registrations so
// a restarted daemon still answers queries for ids registered before a
// crash. It is the serving-layer sibling of internal/checkpoint: where
// checkpoint journals Monte-Carlo trial results, depjournal journals
// the *descriptions* of registered camera networks — an explicit camera
// list, or a deterministic recipe (profile, count/density, seed) —
// keyed by the deployment's content-fingerprint id, plus the mutation
// history (add / remove / reaim records) applied to each deployment
// after registration.
//
// # Format
//
// The journal is JSONL: line 1 is a header {"version":1,"kind":
// "fvcd/deployments"}; every further line is one Record. A Record with
// an empty Op is a registration; Op "reaim", "remove", or "add" is a
// mutation of the most recent registration with the same id, applied in
// file order. Records are appended through a jsonlog.Log (one write and
// one fsync per call, so a kill -9 loses at most the operation whose
// success was never acknowledged), and compaction rewrites the whole
// file atomically (jsonlog.Log.Rewrite).
//
// Mutation indices address the *live* camera list at the time the
// record was written: position i in registration order, as already
// modified by earlier mutations (reaim keeps a camera's position,
// remove deletes it, add appends). That convention is what makes
// compaction folding sound — folding mutations into a flat camera list
// yields exactly the live list, so later mutations keep addressing the
// same cameras whether or not a fold happened in between.
//
// # Replay
//
// Open replays the journal into memory under the jsonlog decode and
// torn-tail rules: a torn final line — the signature of a crash
// mid-append — is dropped; malformed interior lines and records with an
// unknown op are refused with ErrCorrupt (they indicate real damage, and
// silently skipping registrations would turn restart into data loss).
// A mutation for an id with no prior registration is likewise
// ErrCorrupt: the writer always journals the registration first.
// Duplicate registration ids are tolerated: the id is a content hash,
// so duplicates describe the same base network; the last registration
// wins in place and resets the mutation history that followed the
// earlier one.
//
// # The version gate
//
// Every batch enters through Apply, behind one version check taken
// under the journal lock: the owner's stamped mutations
// (AppendMutations), a peer's mirrored records, and a per-id snapshot
// installed by anti-entropy or a booting replica. A deployment's
// version — its registration's BaseVersion plus the mutation records
// after it — therefore only moves forward, and a refused batch writes
// nothing.
//
// # Compaction
//
// When the file grows past CompactBytes and holds reclaimable lines
// (duplicate registrations, or mutation records that can be folded),
// the journal is rewritten as a snapshot (atomic rename) and appending
// resumes on the fresh file. Folding replaces a registration and its
// mutations with a single flat-camera-list registration marked Folded
// (its id intentionally no longer fingerprints the camera list — it
// names the lineage) carrying BaseVersion, the number of mutations
// folded in, so deployment versions stay monotonic across restarts.
// Recipe-form registrations can only fold when the journal was opened
// with a Materialize hook; a deployment whose fold fails is kept
// verbatim (registration + mutations) — replay handles both shapes.
package depjournal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"

	"fullview/internal/faultinject"
	"fullview/internal/jsonlog"
)

// Version is the journal format version written to new headers.
const Version = 1

// Kind is the header kind identifying a deployment journal.
const Kind = "fvcd/deployments"

// DefaultCompactBytes is the compaction threshold used when Options
// leaves CompactBytes zero.
const DefaultCompactBytes = 4 << 20

// Mutation record kinds (Record.Op). A registration has an empty Op.
const (
	// OpReaim re-points live cameras: Record.Reaim lists (index, new
	// orientation) pairs.
	OpReaim = "reaim"
	// OpRemove deletes live cameras: Record.Remove lists unique live
	// indices.
	OpRemove = "remove"
	// OpAdd appends cameras: Record.Cameras holds the new cameras.
	OpAdd = "add"
)

// Journal errors.
var (
	// ErrCorrupt reports a journal whose interior cannot be parsed.
	ErrCorrupt = errors.New("depjournal: journal is corrupt")
	// ErrClosed reports use of a closed journal.
	ErrClosed = errors.New("depjournal: journal is closed")
	// ErrNoID reports an attempt to append a record without an id.
	ErrNoID = errors.New("depjournal: record has no id")
	// ErrUnknownID reports a mutation batch for an unregistered id.
	ErrUnknownID = errors.New("depjournal: mutation for unregistered id")
	// ErrNotFound reports a lookup (snapshot filter, digest) for an id
	// the journal does not hold.
	ErrNotFound = errors.New("depjournal: id not journaled")
	// ErrInvalid reports a batch no writer produces: a record for another
	// id, a second registration, an unknown op, or mutations that are
	// unstamped or not stamped consecutively. Retrying cannot fix it.
	ErrInvalid = errors.New("depjournal: invalid record batch")
	// ErrStale reports a batch the local copy already holds: mutations
	// whose first stamp is at or below the local version, or a
	// registration-led batch that is not strictly ahead of it. Nothing
	// is written; the local copy is at least as new.
	ErrStale = errors.New("depjournal: batch is not ahead of the local copy")
	// ErrGap reports mutations whose first stamp skips past the local
	// version plus one: the records in between are missing here, and
	// appending would fabricate a history the owner never had. Nothing
	// is written; a per-id snapshot install closes the gap.
	ErrGap = errors.New("depjournal: batch skips versions the local copy lacks")
)

// header is the first journal line.
type header struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
}

// Camera is one explicitly-placed camera (angles in radians). It is
// also the service's wire form, so a registration's cameras are
// journaled exactly as the client sent them.
type Camera struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Orient   float64 `json:"orient"`
	Radius   float64 `json:"radius"`
	Aperture float64 `json:"aperture"`
	Group    int     `json:"group,omitempty"`
}

// ReaimOp re-points the camera at live index I to orientation Orient
// (radians).
type ReaimOp struct {
	I      int     `json:"i"`
	Orient float64 `json:"orient"`
}

// Record is one journaled line: a registration (empty Op) holding
// exactly the description the client sent — explicit cameras, or a
// deterministic recipe — or a mutation (Op reaim/remove/add) of the
// registration with the same id. Replaying the registration through the
// same build path and the mutations in order reproduces the live
// network bit-for-bit, which is what makes post-restart answers
// identical to pre-crash ones.
type Record struct {
	// ID is the deployment's content fingerprint (the lineage id; a
	// mutated deployment keeps the id of its base registration).
	ID string `json:"id"`
	// Op is empty for a registration, or one of OpReaim, OpRemove,
	// OpAdd for a mutation.
	Op string `json:"op,omitempty"`
	// Torus is the region side (0 means the default unit torus).
	Torus float64 `json:"torus,omitempty"`

	// Cameras is the explicit camera list (registration explicit form,
	// or the added cameras of an OpAdd mutation).
	Cameras []Camera `json:"cameras,omitempty"`

	// Profile, N, Density, Deploy, and Seed are the deterministic
	// deployment recipe (recipe form).
	Profile string  `json:"profile,omitempty"`
	N       int     `json:"n,omitempty"`
	Density float64 `json:"density,omitempty"`
	Deploy  string  `json:"deploy,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`

	// Remove lists the live indices an OpRemove mutation deletes.
	Remove []int `json:"remove,omitempty"`
	// Reaim lists the re-aims of an OpReaim mutation.
	Reaim []ReaimOp `json:"reaim,omitempty"`

	// Folded marks a registration written by compaction with mutations
	// folded into its camera list; its id names the lineage and is not
	// re-checked against the list's fingerprint.
	Folded bool `json:"folded,omitempty"`
	// BaseVersion is the deployment version already folded into a
	// Folded registration; replayed mutations continue counting from
	// it.
	BaseVersion uint64 `json:"baseVersion,omitempty"`
}

// validate rejects records no writer of this package produces.
func (r *Record) validate() error {
	if r.ID == "" {
		return ErrNoID
	}
	switch r.Op {
	case "", OpReaim, OpRemove, OpAdd:
		return nil
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
}

// MaterializeFunc resolves a recipe-form registration to its flat
// camera list so compaction can fold mutations into it. It must be
// deterministic and mirror the service's build path exactly (the folded
// list replaces the recipe in the journal).
type MaterializeFunc func(Record) ([]Camera, error)

// Options parameterises Open.
type Options struct {
	// CompactBytes is the file size past which a journal holding
	// reclaimable lines is rewritten as a snapshot (0 selects
	// DefaultCompactBytes; negative disables compaction).
	CompactBytes int64
	// Materialize, when non-nil, lets compaction fold mutations into
	// recipe-form registrations. Without it only explicit-camera
	// registrations fold.
	Materialize MaterializeFunc
}

// depState is one deployment's journaled history: its (last-wins)
// registration and the mutations recorded after it.
type depState struct {
	reg  Record
	muts []Record
	// unfoldable is set when a compaction fold attempt failed, so the
	// deployment stops counting as reclaimable (otherwise every append
	// past the threshold would retry the same failing fold).
	unfoldable bool
}

// Journal is the durable deployment registry. Safe for concurrent use.
type Journal struct {
	mu           sync.Mutex
	path         string
	compactBytes int64
	materialize  MaterializeFunc
	log          *jsonlog.Log[Record]
	ids          map[string]int // id → index into deps
	deps         []*depState    // registration order
	dupLines     int64          // duplicate registration lines in the file
	lines        int64          // record lines currently in the file
	closed       bool
}

// Open creates the journal at path or replays an existing one. The
// parent directory must exist. A missing or empty file becomes a fresh
// journal (header written immediately so even a never-appended journal
// is recognizable); a populated one is replayed with torn-final-line
// tolerance.
func Open(path string, opts Options) (*Journal, error) {
	compact := opts.CompactBytes
	if compact == 0 {
		compact = DefaultCompactBytes
	}
	j := &Journal{
		path:         path,
		compactBytes: compact,
		materialize:  opts.Materialize,
		ids:          make(map[string]int),
	}

	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("depjournal: read journal: %w", err)
	}
	if len(data) == 0 {
		if j.log, err = jsonlog.Create[Record](path, header{Version: Version, Kind: Kind}); err != nil {
			return nil, fmt.Errorf("depjournal: create journal: %w", err)
		}
	} else {
		recs, lines, good, err := parse(data)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if err := j.link(r); err != nil {
				return nil, err
			}
		}
		j.lines = lines
		if j.log, err = jsonlog.Reopen[Record](path, good); err != nil {
			return nil, fmt.Errorf("depjournal: open journal: %w", err)
		}
	}
	if j.compactNeededLocked() {
		if err := j.compactLocked(); err != nil {
			j.log.Close()
			return nil, err
		}
	}
	return j, nil
}

// link replays one parsed record into the per-deployment state: a
// registration starts (or, duplicate id, resets) its deployment; a
// mutation appends to the most recent registration with its id. A
// mutation without one is corruption — the writer journals the
// registration strictly before any mutation.
func (j *Journal) link(rec Record) error {
	if rec.Op == "" {
		if i, ok := j.ids[rec.ID]; ok {
			// Last-wins reset: the re-registration supersedes the earlier
			// record and everything applied on top of it.
			j.dupLines += 1 + int64(len(j.deps[i].muts))
			j.deps[i] = &depState{reg: rec}
			return nil
		}
		j.ids[rec.ID] = len(j.deps)
		j.deps = append(j.deps, &depState{reg: rec})
		return nil
	}
	i, ok := j.ids[rec.ID]
	if !ok {
		return fmt.Errorf("%w: mutation %q for unregistered id %s", ErrCorrupt, rec.Op, rec.ID)
	}
	j.deps[i].muts = append(j.deps[i].muts, rec)
	return nil
}

// parse decodes a journal image into its records, the number of record
// lines it holds (duplicates included), and the byte length of the
// intact prefix (see jsonlog.Replay). A record with an unknown op is
// ErrCorrupt wherever it sits.
func parse(data []byte) (recs []Record, lines, good int64, err error) {
	good, err = jsonlog.Replay(data, func(h header) error {
		if h.Version != Version || h.Kind != Kind {
			return fmt.Errorf("unsupported header %+v", h)
		}
		return nil
	}, func(rec Record) error {
		if err := rec.validate(); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return recs, int64(len(recs)), good, nil
}

// Append durably records one registration through Apply. Appending an
// id the journal already holds is a cheap no-op — in particular it does
// NOT reset the id's mutation history; a re-registration names the
// same lineage.
func (j *Journal) Append(rec Record) error {
	if rec.Op != "" {
		return fmt.Errorf("depjournal: Append takes registrations; use AppendMutations for op %q", rec.Op)
	}
	if err := j.Apply(rec.ID, []Record{rec}); err != nil && !errors.Is(err, ErrStale) {
		return err
	}
	return nil
}

// AppendMutations durably records the owner's batch of mutations of
// one registered deployment through Apply, so it passes the same
// version gate as a replicated batch: each record must be stamped with
// the version it produces, continuing the local version. An empty batch
// is a no-op.
func (j *Journal) AppendMutations(id string, muts []Record) error {
	if len(muts) == 0 {
		return nil
	}
	if muts[0].Op == "" {
		return fmt.Errorf("%w: mutation 0 has no op", ErrInvalid)
	}
	return j.Apply(id, muts)
}

// Apply durably records one batch of a deployment's records, all lines
// in one write and one fsync, behind the version gate. The batch's
// first record picks the rule, checked under the journal lock against
// the live copy, so no caller acts on a version it read earlier:
//
//   - A registration followed by its mutations (a per-id snapshot, or
//     a mirrored registration) replaces the local history only if its
//     version — the registration's BaseVersion plus its mutation count —
//     is strictly ahead; an unknown id installs. Otherwise ErrStale,
//     which makes a re-sent bare registration of a known id ErrStale.
//     Replay's last-wins rule makes the appended registration supersede
//     the old history on the next Open, so a replica that missed
//     arbitrary records converges to the sender's exact bytes.
//   - Mutations must be stamped (BaseVersion) with the versions they
//     produce, consecutively, starting at the local version plus one. A
//     first stamp at or below the local version is ErrStale (already
//     held); one further ahead is ErrGap (records missing here). A
//     mutation of an unregistered id is ErrUnknownID.
//
// A refused batch writes nothing; a malformed one is ErrInvalid. The
// faultinject.JournalWrite point fires before the write.
func (j *Journal) Apply(id string, recs []Record) error {
	if err := checkBatch(id, recs); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	di, known := j.ids[id]
	var cur uint64
	if known {
		cur = j.deps[di].version()
	}
	if recs[0].Op == "" {
		if incoming := recs[0].BaseVersion + uint64(len(recs)-1); known && incoming <= cur {
			return fmt.Errorf("%w: %s incoming version %d, local %d", ErrStale, id, incoming, cur)
		}
	} else {
		switch first := recs[0].BaseVersion; {
		case !known:
			return fmt.Errorf("%w: %s", ErrUnknownID, id)
		case first <= cur:
			return fmt.Errorf("%w: %s mutation version %d, local %d", ErrStale, id, first, cur)
		case first > cur+1:
			return fmt.Errorf("%w: %s mutation version %d, local %d", ErrGap, id, first, cur)
		}
	}
	if err := j.writeLocked(recs); err != nil {
		return err
	}
	switch {
	case recs[0].Op != "":
		j.deps[di].muts = append(j.deps[di].muts, recs...)
	case known:
		// The superseded registration and its mutations are now dead
		// lines, reclaimable at the next compaction.
		j.dupLines += 1 + int64(len(j.deps[di].muts))
		j.deps[di] = &depState{reg: recs[0], muts: append([]Record(nil), recs[1:]...)}
	default:
		j.ids[id] = len(j.deps)
		j.deps = append(j.deps, &depState{reg: recs[0], muts: append([]Record(nil), recs[1:]...)})
	}
	if j.compactNeededLocked() {
		// Compaction failing must not fail the apply — the records are
		// durable either way; the oversized file is only a cost.
		_ = j.compactLocked()
	}
	return nil
}

// checkBatch refuses, before the lock is taken, a batch no writer
// produces (see Apply).
func checkBatch(id string, recs []Record) error {
	if id == "" {
		return ErrNoID
	}
	if len(recs) == 0 {
		return fmt.Errorf("%w: no records", ErrInvalid)
	}
	mutFirst := recs[0].Op != ""
	if mutFirst && recs[0].BaseVersion == 0 {
		return fmt.Errorf("%w: mutation 0 of %s is unstamped", ErrInvalid, id)
	}
	for i := range recs {
		r := &recs[i]
		switch {
		case r.ID != id:
			return fmt.Errorf("%w: record %d has id %q, want %q", ErrInvalid, i, r.ID, id)
		case i > 0 && r.Op == "":
			return fmt.Errorf("%w: record %d is a second registration", ErrInvalid, i)
		case mutFirst && r.BaseVersion != recs[0].BaseVersion+uint64(i):
			return fmt.Errorf("%w: mutation %d is stamped %d, want %d", ErrInvalid, i, r.BaseVersion, recs[0].BaseVersion+uint64(i))
		}
		if err := r.validate(); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrInvalid, i, err)
		}
	}
	return nil
}

// version returns the deployment's logical version: the mutation count
// folded into its registration plus the mutation records that follow
// it. This equals the served index version (each journaled mutation
// record is one version bump).
func (d *depState) version() uint64 {
	return d.reg.BaseVersion + uint64(len(d.muts))
}

// writeLocked appends the records as one fsynced batch (see
// jsonlog.Log.Append). Caller holds j.mu; in-memory state is NOT
// updated here.
func (j *Journal) writeLocked(recs []Record) error {
	if err := faultinject.Fire(faultinject.JournalWrite); err != nil {
		return fmt.Errorf("depjournal: write record: %w", err)
	}
	if err := j.log.Append(recs...); err != nil {
		return fmt.Errorf("depjournal: write record: %w", err)
	}
	j.lines += int64(len(recs))
	return nil
}

// foldableLocked reports whether a deployment's mutations could fold at
// the next compaction.
func (j *Journal) foldableLocked(d *depState) bool {
	return stageFoldable(stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}, j.materialize)
}

// compactNeededLocked reports whether the file is past the threshold
// and actually holds reclaimable lines: duplicate registrations, or
// mutations a fold would absorb.
func (j *Journal) compactNeededLocked() bool {
	if j.compactBytes <= 0 || j.log.Size() <= j.compactBytes {
		return false
	}
	if j.dupLines > 0 {
		return true
	}
	for _, d := range j.deps {
		if j.foldableLocked(d) {
			return true
		}
	}
	return false
}

// foldDeployment folds a registration's mutations into a flat camera
// list, mirroring the live-index semantics exactly: reaim re-points in
// place, remove deletes (validated unique and in range), add appends.
// It reports ok == false — fold nothing, keep the records verbatim —
// when the base list cannot be materialised, a mutation is out of
// range, or the folded list is empty (an empty explicit registration
// cannot round-trip through the build path).
func foldDeployment(reg Record, muts []Record, materialize MaterializeFunc) (Record, bool) {
	cams := append([]Camera(nil), reg.Cameras...)
	if len(cams) == 0 {
		if materialize == nil {
			return Record{}, false
		}
		m, err := materialize(reg)
		if err != nil || len(m) == 0 {
			return Record{}, false
		}
		cams = m
	}
	for _, mut := range muts {
		switch mut.Op {
		case OpReaim:
			for _, op := range mut.Reaim {
				if op.I < 0 || op.I >= len(cams) {
					return Record{}, false
				}
				cams[op.I].Orient = op.Orient
			}
		case OpRemove:
			idx := append([]int(nil), mut.Remove...)
			for i := 1; i < len(idx); i++ {
				for k := i; k > 0 && idx[k] > idx[k-1]; k-- {
					idx[k], idx[k-1] = idx[k-1], idx[k]
				}
			}
			for k, i := range idx {
				if i < 0 || i >= len(cams) || (k > 0 && idx[k-1] == i) {
					return Record{}, false
				}
				cams = append(cams[:i], cams[i+1:]...)
			}
		case OpAdd:
			cams = append(cams, mut.Cameras...)
		default:
			return Record{}, false
		}
	}
	if len(cams) == 0 {
		return Record{}, false
	}
	return Record{
		ID:          reg.ID,
		Torus:       reg.Torus,
		Cameras:     cams,
		Folded:      true,
		BaseVersion: reg.BaseVersion + uint64(len(muts)),
	}, true
}

// compactLocked rewrites the file as the snapshot. Deployments whose
// mutations fold are written as one Folded registration; the rest keep
// registration + mutations verbatim. In-memory state is committed only
// after the rewrite succeeds. Callers hold j.mu.
func (j *Journal) compactLocked() error {
	var buf bytes.Buffer
	stagedDeps, lines, err := encodeSnapshot(&buf, j.stageLocked(), j.materialize)
	if err != nil {
		return err
	}
	if err := j.log.Rewrite(buf.Bytes()); err != nil {
		return fmt.Errorf("depjournal: compact: %w", err)
	}
	for di := range j.deps {
		j.deps[di].reg = stagedDeps[di].reg
		j.deps[di].muts = stagedDeps[di].muts
		j.deps[di].unfoldable = stagedDeps[di].unfoldable
	}
	j.dupLines = 0
	j.lines = lines
	return nil
}

// Has reports whether id is journaled.
func (j *Journal) Has(id string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.ids[id]
	return ok
}

// Lookup returns the journaled registration record for id.
func (j *Journal) Lookup(id string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, ok := j.ids[id]
	if !ok {
		return Record{}, false
	}
	return j.deps[i].reg, true
}

// Mutations returns a copy of the mutation records of id, in applied
// order (empty after a fold absorbed them into the registration).
func (j *Journal) Mutations(id string) []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, ok := j.ids[id]
	if !ok || len(j.deps[i].muts) == 0 {
		return nil
	}
	return append([]Record(nil), j.deps[i].muts...)
}

// Records returns the journaled registrations in registration order,
// deduplicated by id.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.deps))
	for i, d := range j.deps {
		out[i] = d.reg
	}
	return out
}

// Len returns the number of distinct journaled deployments.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.deps)
}

// Size returns the journal file's current byte size.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Size()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the append handle; later Appends fail with ErrClosed.
// The file stays on disk for the next daemon start.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.log.Close()
}
