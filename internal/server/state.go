package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fullview/internal/depcache"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// errNotDurable classifies a registration or mutation rejected because
// the durable journal could not record it; the handlers map it to 503
// with a jittered Retry-After.
var errNotDurable = errors.New("not durable: journal write failed")

// journalFile is the deployment journal's name inside the state dir.
const journalFile = "deployments.jsonl"

// Readiness states reported by GET /readyz.
const (
	// ReadyStarting: the startup journal replay is still warming the
	// cache. Journaled ids already answer (rebuilt lazily on first use);
	// the state exists so orchestrators can hold traffic until the cache
	// is warm.
	ReadyStarting = "starting"
	// ReadyOK: fully operational.
	ReadyOK = "ok"
	// ReadyDegraded: the deployment journal is failing to persist new
	// registrations. Queries and surveys keep answering from memory;
	// registrations are refused with 503 until a journal write succeeds
	// again.
	ReadyDegraded = "degraded"
)

// openState opens the durable deployment journal under cfg.StateDir and
// registers its metrics. Called from New before the server starts
// serving.
func (s *Server) openState() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("server: create state dir: %w", err)
	}
	path := filepath.Join(s.cfg.StateDir, journalFile)
	j, err := depjournal.Open(path,
		depjournal.Options{
			CompactBytes: s.cfg.JournalCompactBytes,
			// The fold hook lets compaction absorb mutation records into
			// recipe-form registrations by materialising the recipe through
			// the exact registration build path.
			Materialize: s.materializeRecord,
		})
	if err != nil {
		return fmt.Errorf("server: open deployment journal: %w", err)
	}
	s.journal = j
	s.m.reg.GaugeFunc("fvcd_journal_deployments",
		"Deployments recorded in the durable journal.",
		func() float64 { return float64(j.Len()) })
	s.m.reg.GaugeFunc("fvcd_journal_bytes",
		"Deployment journal file size in bytes.",
		func() float64 { return float64(j.Size()) })
	return nil
}

// warmup replays the journal into the deployment cache in the
// background and then marks the server ready. Only the most recent
// CacheSize registrations are rebuilt eagerly (older ones would be
// evicted immediately); anything journaled but not warmed is rebuilt
// lazily by deployment() on first use, so correctness never waits on
// the warm-up — only cache temperature does.
func (s *Server) warmup() {
	defer close(s.ready)
	if s.journal != nil {
		if err := faultinject.Fire(faultinject.JournalReplay); err != nil {
			s.logf("journal replay: injected fault: %v", err)
		}
		recs := s.journal.Records()
		warm := recs
		if len(warm) > s.cfg.CacheSize {
			warm = warm[len(warm)-s.cfg.CacheSize:]
		}
		warmed := 0
		for _, rec := range warm {
			if _, ok := s.reviveRecord(rec); ok {
				warmed++
			}
		}
		if len(recs) > 0 {
			s.logf("journal: replayed %d deployments (%d warmed into cache)", len(recs), warmed)
		}
	}
	// The job replay runs after the deployment replay so resumed jobs
	// can revive the deployments they survey; /readyz stays "starting"
	// until both finish. Start also launches the job worker pools, so a
	// stateless server passes through here too.
	s.jobs.Start()
}

// lookup resolves a deployment id: the cache first, then the durable
// journal, so a journaled id survives both LRU eviction and a process
// restart, rebuilt on first use. Every request that names an existing
// id — reads, jobs, and PATCH — resolves it here.
func (s *Server) lookup(id string) (*depcache.Entry, bool) {
	if e, ok := s.cache.Get(id); ok {
		return e, true
	}
	if s.journal == nil {
		return nil, false
	}
	rec, ok := s.journal.Lookup(id)
	if !ok {
		return nil, false
	}
	return s.reviveRecord(rec)
}

// reviveRecord rebuilds one journal record into the cache.
func (s *Server) reviveRecord(rec depjournal.Record) (*depcache.Entry, bool) {
	entry, _, err := s.cache.GetOrBuild(rec.ID, func() (*depcache.Entry, error) {
		if err := faultinject.Fire(faultinject.DepcacheBuild); err != nil {
			return nil, err
		}
		return s.entryFromRecord(rec)
	})
	if err != nil {
		s.logf("journal: cannot revive deployment %s: %v", rec.ID, err)
		return nil, false
	}
	return entry, true
}

// entryFromRecord rebuilds one journaled deployment: the base network
// through the exact registration build path, then every journaled
// mutation replayed in order, so the revived index answers
// bit-identically to the pre-crash (or pre-eviction) one. It is the
// single rebuild path shared by revival and by handleRegister's
// build-on-miss closure — both must see the mutated state, never the
// client's base request.
//
// An unfolded record is verified to still fingerprint to its journaled
// id (a mismatch means corruption or an incompatible build, and must
// not be served under a wrong id). A compaction-folded record skips the
// check by design — its camera list is the folded live state, not the
// base registration the id fingerprints — and resumes version counting
// at the folded-in BaseVersion.
func (s *Server) entryFromRecord(rec depjournal.Record) (*depcache.Entry, error) {
	net, err := buildNetwork(&rec, s.cfg.MaxCameras)
	if err != nil {
		return nil, fmt.Errorf("rebuild network: %w", err)
	}
	if !rec.Folded {
		if fp := depcache.Fingerprint(net); fp != rec.ID {
			return nil, fmt.Errorf("record rebuilds to fingerprint %s, not its id", fp)
		}
	}
	e := &depcache.Entry{
		Fingerprint: rec.ID,
		Index:       spatial.NewMutableIndex(net, s.mutableOpts(rec.BaseVersion)),
	}
	if err := applyMutations(e.Index, s.journal.Mutations(rec.ID)); err != nil {
		return nil, fmt.Errorf("replay %w", err)
	}
	return e, nil
}

// applyMutations applies journaled mutation records, in order, to a
// live index. It is the one apply path: revival replays a deployment's
// journaled history through it, and a PATCH applies the very records it
// just journaled, so the live state and its replay cannot diverge.
func applyMutations(ix *spatial.MutableIndex, recs []depjournal.Record) error {
	for i, mut := range recs {
		var err error
		switch mut.Op {
		case depjournal.OpReaim:
			ops := make([]spatial.ReaimOp, len(mut.Reaim))
			for k, op := range mut.Reaim {
				ops[k] = spatial.ReaimOp{Index: op.I, Orient: op.Orient}
			}
			_, err = ix.Reaim(ops)
		case depjournal.OpRemove:
			_, err = ix.Remove(mut.Remove)
		case depjournal.OpAdd:
			cams := make([]sensor.Camera, len(mut.Cameras))
			for k, c := range mut.Cameras {
				cams[k] = sensorCamera(c)
			}
			_, err = ix.Add(cams)
		default:
			err = fmt.Errorf("unknown mutation op %q", mut.Op)
		}
		if err != nil {
			return fmt.Errorf("mutation %d (%s): %w", i, mut.Op, err)
		}
	}
	return nil
}

// mutableOpts builds the MutableOptions every served index shares:
// the configured rebuild threshold and the rebuild telemetry hook.
func (s *Server) mutableOpts(baseVersion uint64) spatial.MutableOptions {
	return spatial.MutableOptions{
		RebuildFraction: s.cfg.RebuildFraction,
		BaseVersion:     baseVersion,
		OnRebuild:       func() { s.m.rebuilds.Inc() },
	}
}

// materializeRecord resolves a recipe-form journal record to its flat
// camera list for compaction folding, through the exact registration
// build path so the folded list is bit-identical to the live one.
func (s *Server) materializeRecord(rec depjournal.Record) ([]depjournal.Camera, error) {
	net, err := buildNetwork(&rec, s.cfg.MaxCameras)
	if err != nil {
		return nil, err
	}
	cams := net.Cameras()
	out := make([]depjournal.Camera, len(cams))
	for i, c := range cams {
		out[i] = depjournal.Camera{X: c.Pos.X, Y: c.Pos.Y, Orient: c.Orient,
			Radius: c.Radius, Aperture: c.Aperture, Group: c.Group}
	}
	return out, nil
}

// persist journals a new registration — the record the network was
// built from, id set. Failure marks the service degraded and surfaces
// as errNotDurable (the caller's 503); the next successful journal
// write clears the degraded state.
func (s *Server) persist(rec depjournal.Record) error {
	if s.journal == nil || s.journal.Has(rec.ID) {
		return nil
	}
	if err := s.journal.Append(rec); err != nil {
		s.m.journalFailures.Inc()
		s.setJournalErr(err)
		s.logf("journal: append %s failed: %v", rec.ID, err)
		return fmt.Errorf("%w: %v", errNotDurable, err)
	}
	s.setJournalErr(nil)
	// Mirror only after the local append succeeded: the local journal
	// is the source of truth, and the mirror stream must never carry a
	// record that was refused here.
	s.mirrorRecords([]depjournal.Record{rec})
	return nil
}

// persistMutations journals one PATCH batch before it is applied, with
// the same degraded-state bookkeeping as persist. Stateless servers
// (no journal) apply mutations in memory only.
//
// The batch is stamped from the cached entry's version, and the
// journal's version gate refuses it (ErrStale/ErrGap) when a replicated
// history overtook that entry — an anti-entropy install does not take
// the mutation lock, so its invalidation can miss an entry a PATCH
// already holds. That is not a journal fault: readiness is untouched,
// the stale entry is dropped, and the error becomes the caller's 503,
// whose retry revives from the journal and stamps from its version.
func (s *Server) persistMutations(id string, recs []depjournal.Record) error {
	if s.journal == nil || len(recs) == 0 {
		return nil
	}
	err := s.journal.AppendMutations(id, recs)
	if errors.Is(err, depjournal.ErrStale) || errors.Is(err, depjournal.ErrGap) {
		s.cache.Invalidate(id)
		s.logf("journal: mutate %s refused, the cached copy is behind the journal: %v", id, err)
		return err
	}
	if err != nil {
		s.m.journalFailures.Inc()
		s.setJournalErr(err)
		s.logf("journal: mutate %s failed: %v", id, err)
		return fmt.Errorf("%w: %v", errNotDurable, err)
	}
	s.setJournalErr(nil)
	s.mirrorRecords(recs)
	return nil
}

// setJournalErr records the journal's health for /readyz.
func (s *Server) setJournalErr(err error) {
	s.stateMu.Lock()
	s.journalErr = err
	s.stateMu.Unlock()
}

// readiness derives the /readyz state.
func (s *Server) readiness() (state, reason string) {
	select {
	case <-s.ready:
	default:
		return ReadyStarting, "journal replay in progress"
	}
	if s.journal != nil {
		s.stateMu.Lock()
		err, werr := s.journalErr, s.warmErr
		s.stateMu.Unlock()
		if err != nil {
			return ReadyDegraded, "journal writes failing (registrations 503, queries unaffected): " + err.Error()
		}
		if werr != nil {
			return ReadyDegraded, "boot anti-entropy round failed (serving what was pulled; restart to retry): " + werr.Error()
		}
	}
	if err := s.jobs.JournalErr(); err != nil {
		return ReadyDegraded, "job journal writes failing (jobs run memory-only): " + err.Error()
	}
	return ReadyOK, ""
}

// recordFromRequest converts a registration request to the journal
// record it is built from and persisted as; the caller sets ID to the
// built network's fingerprint.
func recordFromRequest(req *registerRequest) depjournal.Record {
	return depjournal.Record{
		Torus:   req.Torus,
		Cameras: req.Cameras,
		Profile: req.Profile,
		N:       req.N,
		Density: req.Density,
		Deploy:  req.Deploy,
		Seed:    req.Seed,
	}
}
