// Package checkpoint persists completed Monte-Carlo trial results so an
// interrupted experiment can resume without redoing finished work.
//
// A Journal is a JSONL file: one header line identifying the run (kind,
// seed, trial count, and a free-form parameter fingerprint) followed by
// one line per completed trial. Because trial i of every experiment
// runner draws its randomness from the dedicated (seed, i) RNG stream,
// a resumed run that re-executes only the missing trials produces
// results bit-identical to an uninterrupted run.
//
// # Durability
//
// Every write replaces the journal atomically through
// jsonlog.WriteAtomic, so a crash or kill at any instant leaves either
// the previous journal or the new one — never a torn line. Loading
// follows the jsonlog decode and torn-tail rules, so journals damaged by
// filesystem loss still resume from their intact prefix.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"fullview/internal/jsonlog"
)

// Version is the journal format version written to new headers.
const Version = 1

// Journal errors.
var (
	// ErrMismatch reports a journal whose header does not match the run
	// trying to resume from it (different seed, trial count, kind, or
	// parameter fingerprint).
	ErrMismatch = errors.New("checkpoint: journal belongs to a different run")
	// ErrCorrupt reports a journal whose prefix cannot be parsed (a bad
	// header or a malformed interior record).
	ErrCorrupt = errors.New("checkpoint: journal is corrupt")
	// ErrBadTrial reports a record with a trial index outside [0, Trials).
	ErrBadTrial = errors.New("checkpoint: trial index out of range")
	// ErrClosed reports use of a closed journal.
	ErrClosed = errors.New("checkpoint: journal is closed")
)

// Header identifies the run a journal belongs to. Open refuses to
// resume when any field of the stored header differs from the caller's,
// so results from one configuration can never leak into another.
type Header struct {
	// Version is the journal format version.
	Version int `json:"version"`
	// Kind names the experiment family (e.g. "experiment/grid").
	Kind string `json:"kind"`
	// Seed is the master RNG seed of the run.
	Seed uint64 `json:"seed"`
	// Trials is the total number of trials the run will execute.
	Trials int `json:"trials"`
	// Params is a free-form fingerprint of the experiment parameters
	// (population, θ, profile, …) in any stable textual form.
	Params string `json:"params,omitempty"`
}

// record is one journaled trial result.
type record struct {
	Trial  int             `json:"trial"`
	Result json.RawMessage `json:"result"`
}

// Journal is an append-only store of completed trial results backed by
// an atomically rewritten JSONL file. It is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	path    string
	header  Header
	results map[int]json.RawMessage
	closed  bool
}

// Open creates the journal at path, or resumes from an existing one.
// The header (Version filled in automatically) must match an existing
// journal's exactly; otherwise Open fails with ErrMismatch and leaves
// the file untouched. Records beyond a truncated final line are
// dropped; malformed interior lines fail with ErrCorrupt.
func Open(path string, h Header) (*Journal, error) {
	if h.Trials <= 0 {
		return nil, fmt.Errorf("checkpoint: trials must be positive, got %d", h.Trials)
	}
	h.Version = Version
	j := &Journal{path: path, header: h, results: make(map[int]json.RawMessage)}

	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return j, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: read journal: %w", err)
	}
	stored, results, err := parse(data)
	if err != nil {
		return nil, err
	}
	if stored != h {
		return nil, fmt.Errorf("%w: journal %+v, run %+v", ErrMismatch, stored, h)
	}
	for trial := range results {
		if trial < 0 || trial >= h.Trials {
			return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrBadTrial, trial, h.Trials)
		}
	}
	j.results = results
	return j, nil
}

// parse decodes a journal image into its header and records under the
// jsonlog decode and torn-tail rules.
func parse(data []byte) (Header, map[int]json.RawMessage, error) {
	var h Header
	results := make(map[int]json.RawMessage)
	_, err := jsonlog.Replay(data, func(hdr Header) error {
		if h = hdr; h.Version != Version {
			return fmt.Errorf("unsupported version %d", h.Version)
		}
		return nil
	}, func(rec record) error {
		if rec.Result == nil {
			return errors.New("record without result")
		}
		results[rec.Trial] = rec.Result
		return nil
	})
	if err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return h, results, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Header returns the run identity this journal stores.
func (j *Journal) Header() Header {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.header
}

// Len returns the number of journaled trials.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.results)
}

// Done reports whether the trial's result is journaled.
func (j *Journal) Done(trial int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.results[trial]
	return ok
}

// Missing returns the ascending list of trial indices not yet
// journaled.
func (j *Journal) Missing() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	missing := make([]int, 0, j.header.Trials-len(j.results))
	for i := 0; i < j.header.Trials; i++ {
		if _, ok := j.results[i]; !ok {
			missing = append(missing, i)
		}
	}
	return missing
}

// Get decodes the journaled result of a trial into out and reports
// whether the trial was journaled.
func (j *Journal) Get(trial int, out any) (bool, error) {
	j.mu.Lock()
	raw, ok := j.results[trial]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("checkpoint: decode trial %d: %w", trial, err)
	}
	return true, nil
}

// Record journals a completed trial's result and flushes the journal
// atomically (temp file in the target directory, fsync, rename).
// Results must round-trip through encoding/json; non-finite floats are
// rejected by Marshal, which is intentional — run numeric-health checks
// before journaling. Re-recording an already-journaled trial with an
// identical result is a no-op.
func (j *Journal) Record(trial int, result any) error {
	if trial < 0 || trial >= j.header.Trials {
		return fmt.Errorf("%w: %d not in [0, %d)", ErrBadTrial, trial, j.header.Trials)
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("checkpoint: encode trial %d: %w", trial, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if prev, ok := j.results[trial]; ok {
		if bytes.Equal(prev, raw) {
			return nil
		}
		return fmt.Errorf("checkpoint: trial %d already journaled with a different result", trial)
	}
	j.results[trial] = raw
	if err := j.flushLocked(); err != nil {
		delete(j.results, trial)
		return err
	}
	return nil
}

// flushLocked writes the full journal image atomically. Callers hold
// j.mu.
func (j *Journal) flushLocked() error {
	var buf bytes.Buffer
	if err := j.encodeLocked(&buf); err != nil {
		return fmt.Errorf("checkpoint: encode journal: %w", err)
	}
	if err := jsonlog.WriteAtomic(j.path, buf.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write journal: %w", err)
	}
	return nil
}

// encodeLocked writes the journal image: the header, then the records
// in ascending trial order. Callers hold j.mu.
func (j *Journal) encodeLocked(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(j.header); err != nil {
		return err
	}
	for i := 0; i < j.header.Trials; i++ {
		if raw, ok := j.results[i]; ok {
			if err := enc.Encode(record{Trial: i, Result: raw}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Complete reports whether every trial is journaled.
func (j *Journal) Complete() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.results) == j.header.Trials
}

// Close marks the journal closed; subsequent Records fail with
// ErrClosed. The file stays on disk so the run can be inspected or
// resumed later; use Remove to delete it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	return nil
}

// Remove closes the journal and deletes its file. Removing a journal
// that was never flushed is not an error.
func (j *Journal) Remove() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if err := os.Remove(j.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: remove journal: %w", err)
	}
	return nil
}

// WriteTo serializes the journal's current image (header plus records
// in trial order); it is the exact byte content flushes write.
func (j *Journal) WriteTo(w io.Writer) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf bytes.Buffer
	if err := j.encodeLocked(&buf); err != nil {
		return 0, err
	}
	return buf.WriteTo(w)
}
