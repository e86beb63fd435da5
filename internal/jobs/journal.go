package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"fullview/internal/core"
	"fullview/internal/faultinject"
	"fullview/internal/jsonlog"
)

// The job journal format: one JSONL file per job under <Dir>. Line 1 is
// the header (format version, job id, creation time, and the full spec
// — everything needed to re-derive the job's work after a crash); every
// further line is one record: a completed band's RegionStats, or the
// terminal state. Records are appended through a jsonlog.Log — a row
// group's band records go in one write + fsync, truncated back on a
// failed write — so a kill -9 loses at most the one row group whose
// completion was never acknowledged (a torn write keeps its intact
// leading records); replay follows the jsonlog decode and torn-tail
// rules. Once a job
// reaches a terminal state its file is compacted to header + terminal
// record with jsonlog.WriteAtomic.
const (
	// Version is the job journal format version.
	Version = 1
	// FileKind tags a job journal file's header line.
	FileKind = "fvcd/job"
	// fileSuffix is the per-job journal filename suffix.
	fileSuffix = ".jsonl"
)

// ErrCorrupt reports a job journal file damaged beyond the
// torn-final-line tolerance. Replay quarantines such files (renamed
// *.corrupt) instead of refusing to start the daemon.
var ErrCorrupt = errors.New("jobs: journal corrupt")

// header is the first line of a job journal file.
type header struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	ID        string `json:"id"`
	CreatedNS int64  `json:"createdNs"`
	Spec      Spec   `json:"spec"`
}

func (h header) validate() error {
	if h.Version != Version || h.Kind != FileKind {
		return fmt.Errorf("unsupported header version=%d kind=%q", h.Version, h.Kind)
	}
	if h.ID == "" {
		return errors.New("header has no job id")
	}
	return h.Spec.Validate()
}

// record is one post-header journal line: exactly one of a completed
// band (Band + Stats) or the terminal state (State, plus Error or
// Result and the completion time for TTL accounting across restarts).
type record struct {
	Band       *int              `json:"band,omitempty"`
	Stats      *core.RegionStats `json:"stats,omitempty"`
	State      State             `json:"state,omitempty"`
	Error      string            `json:"error,omitempty"`
	Result     *Result           `json:"result,omitempty"`
	FinishedNS int64             `json:"finishedNs,omitempty"`
}

func (r *record) validate(spec Spec) error {
	band := r.Band != nil
	term := r.State != ""
	switch {
	case band == term:
		return errors.New("record must be exactly one of band or terminal")
	case band:
		if r.Stats == nil {
			return fmt.Errorf("band %d record has no stats", *r.Band)
		}
		if *r.Band < 0 || *r.Band >= spec.Bands() {
			return fmt.Errorf("band %d out of range [0, %d)", *r.Band, spec.Bands())
		}
	default:
		switch r.State {
		case StateDone:
			if r.Result == nil || len(r.Result.Stats) != spec.Slots() {
				return fmt.Errorf("done record needs a result with %d stats", spec.Slots())
			}
		case StateFailed, StateCancelled:
		default:
			return fmt.Errorf("terminal record has non-terminal state %q", r.State)
		}
	}
	return nil
}

// parseJob decodes one job journal image: the header, the completed
// bands, and the terminal record if the job finished. good is the byte
// length of the intact prefix (a torn final line is dropped so the
// caller can truncate it); a record that violates the schema, or any
// record after the terminal one, is ErrCorrupt.
func parseJob(data []byte) (hdr header, bands map[int]core.RegionStats, term *record, good int64, err error) {
	bands = make(map[int]core.RegionStats)
	good, err = jsonlog.Replay(data, func(h header) error {
		hdr = h
		return h.validate()
	}, func(rec record) error {
		if err := rec.validate(hdr.Spec); err != nil {
			return err
		}
		if term != nil {
			return errors.New("record after terminal record")
		}
		if rec.Band != nil {
			bands[*rec.Band] = *rec.Stats
		} else {
			term = &rec
		}
		return nil
	})
	if err != nil {
		return hdr, nil, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return hdr, bands, term, good, nil
}

// jobFile is one job's open journal handle.
type jobFile struct {
	path string
	log  *jsonlog.Log[record]
	hdr  header
}

// createJobFile starts a fresh job journal with its header line,
// fsynced before returning. The faultinject.JobJournalWrite point fires
// before the write.
func createJobFile(path string, hdr header) (*jobFile, error) {
	if err := faultinject.Fire(faultinject.JobJournalWrite); err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	l, err := jsonlog.Create[record](path, hdr)
	if err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	return &jobFile{path: path, log: l, hdr: hdr}, nil
}

// reopenJobFile opens a replayed job journal for appending; jsonlog
// cuts the torn tail past good and terminates an unterminated final
// record first.
func reopenJobFile(path string, hdr header, good int64) (*jobFile, error) {
	l, err := jsonlog.Reopen[record](path, good)
	if err != nil {
		return nil, fmt.Errorf("jobs: reopen journal: %w", err)
	}
	return &jobFile{path: path, log: l, hdr: hdr}, nil
}

// append durably writes records in one write and one fsync. The
// faultinject.JobJournalWrite point fires before the write.
func (jf *jobFile) append(recs ...record) error {
	if err := faultinject.Fire(faultinject.JobJournalWrite); err != nil {
		return fmt.Errorf("jobs: write record: %w", err)
	}
	if err := jf.log.Append(recs...); err != nil {
		return fmt.Errorf("jobs: write record: %w", err)
	}
	return nil
}

// compact atomically rewrites the journal as header + terminal record
// only (the band records are subsumed by the result) and closes the
// append handle — a terminal job never writes again.
func (jf *jobFile) compact(term record) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(jf.hdr); err != nil {
		return fmt.Errorf("jobs: encode header: %w", err)
	}
	if err := enc.Encode(term); err != nil {
		return fmt.Errorf("jobs: encode terminal: %w", err)
	}
	if err := jsonlog.WriteAtomic(jf.path, buf.Bytes()); err != nil {
		return fmt.Errorf("jobs: compact journal: %w", err)
	}
	jf.close()
	return nil
}

func (jf *jobFile) close() { jf.log.Close() }

func (jf *jobFile) remove() {
	jf.close()
	os.Remove(jf.path)
}
