package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fullview/internal/cluster"
	"fullview/internal/depcache"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/jsonlog"
	"fullview/internal/retry"
	"fullview/internal/telemetry"
)

// Cluster-internal routes. They sit off the admission gate — replica
// traffic must not compete with client compute for slots — and exist
// only on clustered servers (Config.PeerURLs non-empty). The paths are
// the cluster package's constants, so the anti-entropy reconciler and
// the handlers it talks to cannot drift apart.
const (
	snapshotRoute = "GET " + cluster.SnapshotPath
	mirrorRoute   = "POST /v1/internal/mirror"
	digestRoute   = "GET " + cluster.DigestPath
)

// DeploymentIDFromRequest computes the deployment id — the network's
// content fingerprint — that a POST /v1/deployments body would be
// assigned, without registering anything. It runs the exact
// registration build path, so the id always matches what the owning
// shard will answer; the cluster router uses it to place registrations
// on the ring. The body is validated as strictly as the registration
// handler validates it (camera caps use the default configuration).
func DeploymentIDFromRequest(body []byte) (string, error) {
	var req registerRequest
	if err := jsonlog.Decode(body, &req); err != nil {
		return "", fmt.Errorf("malformed registration: %v", err)
	}
	rec := recordFromRequest(&req)
	net, err := buildNetwork(&rec, Config{}.withDefaults().MaxCameras)
	if err != nil {
		return "", err
	}
	return depcache.Fingerprint(net), nil
}

// mirrorBatch is the wire body of POST /v1/internal/mirror: journal
// records — registrations and mutations, in append order — that a peer
// replica appended and is replicating here.
type mirrorBatch struct {
	Records []depjournal.Record `json:"records"`
}

// clusterState is the per-server cluster machinery: the async journal
// mirror (sender side) and the cluster metric series. Present only on
// clustered servers.
//
// The cluster's data model is "shared-nothing compute, mirrored
// metadata": the spatial indexes and the coverage compute are sharded
// by the consistent-hash ring, but the deployment journal — tiny
// compared to the indexes it describes — is asynchronously replicated
// to every peer. That one decision buys the whole failure story: any
// replica can warm a dead peer's replacement from its own journal
// (per-id GET /v1/internal/snapshot pulls), a mis-routed request still
// answers correctly (the journal revives any deployment anywhere), and
// membership changes need no data-migration protocol.
type clusterState struct {
	peers  []string // normalized peer base URLs
	client *http.Client

	snapshotBytes *telemetry.Counter
	mirrorSent    *telemetry.Counter
	mirrorRetries *telemetry.Counter
	mirrorDropped *telemetry.Counter
	mirrorApplied *telemetry.Counter
	mirrorStale   *telemetry.Counter

	// antientropy is the periodic digest reconciler; present whenever
	// the server is clustered with a durable journal (its loop only
	// runs when Config.AntiEntropyInterval is set, but Round stays
	// drivable for tests and tools).
	antientropy *cluster.AntiEntropy

	// queues holds one FIFO per peer, so mirrored records reach each
	// peer in local append order (per-deployment order is what
	// correctness needs, and each deployment has exactly one appending
	// owner). pending counts enqueued batches not yet posted or
	// dropped, for FlushMirror.
	queues  map[string]chan []depjournal.Record
	pending atomic.Int64
	// ctx is cancelled by close: it stops the mirror workers and aborts
	// their in-flight posts, so a peer that never answers cannot hold a
	// shutdown for the client timeout.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// mirrorQueueDepth bounds each peer's unsent mirror queue. A peer that
// stays unreachable long enough to overflow it loses those records
// from the mirror stream — and anti-entropy pulls them back later,
// which is why overflow drops (counted, logged) instead of blocking the
// write path.
const mirrorQueueDepth = 256

// newClusterState wires the cluster machinery onto s.
func newClusterState(s *Server) *clusterState {
	c := &clusterState{
		peers:  make([]string, 0, len(s.cfg.PeerURLs)),
		client: &http.Client{Timeout: 30 * time.Second},
		snapshotBytes: s.m.reg.Counter("fvcd_cluster_snapshot_bytes_total",
			"Bytes of per-deployment journal snapshots streamed to pulling peers."),
		mirrorSent: s.m.reg.Counter("fvcd_cluster_mirror_sent_total",
			"Journal record batches mirrored to a peer successfully."),
		mirrorRetries: s.m.reg.Counter("fvcd_mirror_retries_total",
			"Mirror post attempts retried after a transient failure, before the batch was sent or dropped."),
		mirrorDropped: s.m.reg.Counter("fvcd_cluster_mirror_dropped_total",
			"Journal record batches dropped from the mirror stream (queue overflow or peer unreachable past retries)."),
		mirrorApplied: s.m.reg.Counter("fvcd_cluster_mirror_applied_total",
			"Journal records applied from peer mirror batches."),
		mirrorStale: s.m.reg.Counter("fvcd_cluster_mirror_stale_total",
			"Mirrored records skipped because the local copy already held their version (duplicate delivery)."),
		queues: make(map[string]chan []depjournal.Record),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for _, u := range s.cfg.PeerURLs {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		c.peers = append(c.peers, u)
		q := make(chan []depjournal.Record, mirrorQueueDepth)
		c.queues[u] = q
		c.wg.Add(1)
		go c.mirrorWorker(s, u, q)
	}
	return c
}

// mirrorWorker drains one peer's queue, posting each batch with
// bounded retries. Exits on close; batches still queued at shutdown
// are abandoned (anti-entropy heals the peer).
func (c *clusterState) mirrorWorker(s *Server, peer string, q chan []depjournal.Record) {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case batch := <-q:
			if c.postMirror(s, peer, batch) {
				c.mirrorSent.Inc()
			} else {
				c.mirrorDropped.Inc()
				s.logf("cluster: mirror to %s dropped %d records (peer unreachable past retries)", peer, len(batch))
			}
			c.pending.Add(-1)
		}
	}
}

// Mirror retry policy: each batch gets mirrorAttempts tries, with
// doubling backoff from mirrorBackoffBase capped at mirrorBackoffCap
// (25ms, 50ms, 100ms… never past 400ms). Short and bounded on purpose:
// the worker is serial per peer, so time spent retrying one batch is
// head-of-line latency for every batch behind it, and anything the
// retries cannot save is the anti-entropy reconciler's job anyway.
// These bounds ride out a peer restart or a dropped connection — the
// common transient blips — without turning the queue into a stall.
const (
	mirrorAttempts    = 4
	mirrorBackoffBase = 25 * time.Millisecond
	mirrorBackoffCap  = 400 * time.Millisecond
)

// postMirror sends one batch to one peer, retrying transport errors
// and retryable statuses per the policy above. Retried attempts count
// in fvcd_mirror_retries_total; only exhausting them makes the batch a
// drop. The faultinject.MirrorDrop point fails individual attempts,
// exactly like a transport error would.
func (c *clusterState) postMirror(s *Server, peer string, batch []depjournal.Record) bool {
	body, err := json.Marshal(mirrorBatch{Records: batch})
	if err != nil {
		s.logf("cluster: encode mirror batch: %v", err)
		return false
	}
	for attempt := 0; attempt < mirrorAttempts; attempt++ {
		if attempt > 0 {
			c.mirrorRetries.Inc()
			select {
			case <-c.ctx.Done():
				return false
			case <-time.After(retry.Backoff(mirrorBackoffBase, mirrorBackoffCap, attempt-1)):
			}
		}
		if err := faultinject.Fire(faultinject.MirrorDrop); err != nil {
			continue
		}
		req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, peer+"/v1/internal/mirror", bytes.NewReader(body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 300 {
			return true
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < 500 {
			// A non-retryable answer (e.g. the peer rejects the batch as
			// malformed) will not improve with repetition.
			return false
		}
	}
	return false
}

// close stops the mirror workers, aborting any post in flight. Called
// from Shutdown after the HTTP drain, so no handler is still enqueueing.
func (c *clusterState) close() {
	c.cancel()
	c.wg.Wait()
}

// mirrorRecords fans a freshly appended batch out to every peer queue.
// Non-blocking by design: the client's request was already durable
// locally when this runs, and a slow peer must not add latency (or
// failure) to it. An overflowing queue drops the batch for that peer —
// counted — and anti-entropy heals the peer later.
func (s *Server) mirrorRecords(recs []depjournal.Record) {
	c := s.cluster
	if c == nil || len(recs) == 0 {
		return
	}
	for _, q := range c.queues {
		c.pending.Add(1)
		select {
		case q <- recs:
		default:
			c.pending.Add(-1)
			c.mirrorDropped.Inc()
		}
	}
}

// FlushMirror blocks until every enqueued mirror batch has been posted
// or dropped, or ctx expires. A deterministic synchronization point
// for tests and drain scripts; production code never needs it (the
// mirror is asynchronous by contract).
func (s *Server) FlushMirror(ctx context.Context) error {
	c := s.cluster
	if c == nil {
		return nil
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if c.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// handleSnapshot streams one deployment's snapshot image (?id=): the
// journal header plus that id's canonical record lines, the lines a
// local Compact would write for it. Anti-entropy and a booting replica
// fetch it to install the deployment; 404 when the id is not journaled
// here. Appends are not paused (depjournal copies under lock and
// encodes outside it).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "snapshot needs ?id=")
		return
	}
	// Per-id 404s must be answered before any body bytes go out, and
	// SnapshotID guarantees it writes nothing on an unknown id.
	w.Header().Set("Content-Type", "application/x-ndjson")
	n, err := s.journal.SnapshotID(w, id)
	if errors.Is(err, depjournal.ErrNotFound) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.cluster.snapshotBytes.Add(n)
	if err != nil {
		// Headers are gone; all we can do is cut the stream so the peer
		// sees a truncated (and therefore refused) snapshot.
		s.logf("cluster: snapshot of %s failed after %d bytes: %v", id, n, err)
		panic(http.ErrAbortHandler)
	}
}

// handleDigest answers the replica's per-deployment digest map — the
// anti-entropy comparison input. Cheap enough to serve on demand
// (sha256 over journal records already in memory), and always computed
// fresh: a stale digest would mask exactly the divergence the endpoint
// exists to reveal.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.journal.Digests())
}

// handleMirror applies a peer's mirror batch through applyReplicated,
// one run at a time — a run starts at a registration or at a change of
// id and carries the mutations after it. Per run:
//
//   - applied: the cached entry is invalidated;
//   - depjournal.ErrStale (already held: a duplicate delivery, or an
//     anti-entropy pull got there first): skipped and counted;
//   - depjournal.ErrGap (records missing here): skipped and logged;
//     appending would fabricate a history the owner never had, and
//     anti-entropy pulls the authoritative copy instead;
//   - a mutation for an id never registered here, or a malformed batch:
//     422, since retrying cannot fix it;
//   - a journal write failure: 503 + Retry-After, and the peer retries.
func (s *Server) handleMirror(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var batch mirrorBatch
	if err := decodeBody(r, &batch); err != nil {
		writeDecodeError(w, err)
		return
	}
	applied := 0
	defer func() { s.cluster.mirrorApplied.Add(int64(applied)) }()
	for recs := batch.Records; len(recs) > 0; {
		n := 1
		for n < len(recs) && recs[n].ID == recs[0].ID && recs[n].Op != "" {
			n++
		}
		run := recs[:n]
		recs = recs[n:]
		err := s.applyReplicated(run[0].ID, run)
		switch {
		case err == nil:
			applied += len(run)
		case errors.Is(err, depjournal.ErrStale):
			s.cluster.mirrorStale.Add(int64(len(run)))
		case errors.Is(err, depjournal.ErrGap):
			s.logf("cluster: mirror gap, anti-entropy will repair: %v", err)
		case errors.Is(err, depjournal.ErrUnknownID), errors.Is(err, depjournal.ErrInvalid),
			errors.Is(err, depjournal.ErrNoID):
			s.logf("cluster: mirror refused: %v", err)
			writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		default:
			s.setJournalErr(err)
			writeRetryable(w, http.StatusServiceUnavailable, "journal write failed: "+err.Error())
			return
		}
	}
	s.setJournalErr(nil)
	w.WriteHeader(http.StatusNoContent)
}

// applyReplicated is the one way a peer's records enter this replica —
// mirror pushes, anti-entropy pulls and the boot warm all land here:
// the journal's locked version gate (depjournal.Journal.Apply), then
// invalidation of any cached entry for the id, so the next use rebuilds
// from the advanced journal. Replicated records are never re-mirrored:
// every replica reconciles for itself.
func (s *Server) applyReplicated(id string, recs []depjournal.Record) error {
	if err := s.journal.Apply(id, recs); err != nil {
		return err
	}
	s.cache.Invalidate(id)
	return nil
}

// bootRoundTimeout bounds the boot warm, so a peer that accepts but
// never answers cannot hold startup past it.
const bootRoundTimeout = 30 * time.Second

// warmFromPeers fills a journal that opened empty with one anti-entropy
// round, so a replaced replica starts with the cluster's deployments
// instead of an empty registry. Outcomes (DESIGN.md §12):
//
//   - no peer answered → cold start, NOT degraded (the signature of a
//     whole-cluster first boot);
//   - a peer answered but a digest, pull or apply failed → whatever was
//     pulled is kept, readiness DEGRADED until restart (still serving;
//     anti-entropy and mirrors heal the journal, a restart retries).
func (s *Server) warmFromPeers() {
	ctx, cancel := context.WithTimeout(s.cluster.ctx, bootRoundTimeout)
	defer cancel()
	res := s.cluster.antientropy.Round(ctx)
	switch {
	case res.Err != nil:
		// New has not returned yet, so no reader of warmErr exists.
		s.warmErr = res.Err
		s.logf("cluster: peer warm failed after %d deployments, serving degraded: %v", res.Pulled, res.Err)
	case !res.Reached:
		s.logf("cluster: no peer reachable for journal warm, starting cold (first boot?)")
	default:
		s.logf("cluster: boot round warmed journal from peers (%d deployments)", res.Pulled)
	}
}

// antiEntropyStore adapts the server to cluster.AntiEntropyStore: the
// digest side reads the journal, the apply side is applyReplicated.
type antiEntropyStore struct{ s *Server }

func (a antiEntropyStore) Digests() map[string]depjournal.DigestInfo {
	return a.s.journal.Digests()
}

func (a antiEntropyStore) Apply(id string, recs []depjournal.Record) error {
	return a.s.applyReplicated(id, recs)
}

// newAntiEntropy builds the reconciler once the journal is open, warms
// an empty journal from the peers with one round, and only then starts
// the periodic loop (when an interval was configured; Round stays
// drivable either way). Called from New on clustered servers.
func (s *Server) newAntiEntropy() {
	ae, err := cluster.NewAntiEntropy(cluster.AntiEntropyConfig{
		Peers:    s.cluster.peers,
		Local:    antiEntropyStore{s},
		Interval: s.cfg.AntiEntropyInterval,
		Client:   s.cluster.client,
		Registry: s.m.reg,
		Logger:   s.cfg.Logger,
	})
	if err != nil {
		// Unreachable by construction (peers and store are non-nil when
		// this runs), but a reconciler must never take the server down.
		s.logf("cluster: anti-entropy disabled: %v", err)
		return
	}
	s.cluster.antientropy = ae
	if s.journal.Len() == 0 {
		s.warmFromPeers()
	}
	ae.Start()
}

// AntiEntropyRound runs one reconciliation pass immediately and
// returns the number of deployments repaired. Deterministic driver for
// tests and operational tooling; returns 0 on non-clustered servers.
func (s *Server) AntiEntropyRound(ctx context.Context) int {
	if s.cluster == nil || s.cluster.antientropy == nil {
		return 0
	}
	return s.cluster.antientropy.Round(ctx).Pulled
}
