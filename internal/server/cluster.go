package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
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
	shim := &Server{cfg: Config{}.withDefaults()}
	net, err := shim.buildNetwork(&req)
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
// (GET /v1/internal/snapshot), a mis-routed request still answers
// correctly (the journal revives any deployment anywhere), and
// membership changes need no data-migration protocol.
type clusterState struct {
	peers  []string // normalized peer base URLs
	client *http.Client

	snapshotBytes *telemetry.Counter
	snapshots     *telemetry.Counter
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
	done    chan struct{}
	wg      sync.WaitGroup
}

// mirrorQueueDepth bounds each peer's unsent mirror queue. A peer that
// stays unreachable long enough to overflow it loses those records
// from the mirror stream — and recovers them wholesale the next time
// any replica warms from a snapshot, which is why overflow drops
// (counted, logged) instead of blocking the write path.
const mirrorQueueDepth = 256

// newClusterState wires the cluster machinery onto s. Called from New
// before openState, so the snapshot warm path can use the HTTP client.
func newClusterState(s *Server) *clusterState {
	c := &clusterState{
		peers:  make([]string, 0, len(s.cfg.PeerURLs)),
		client: &http.Client{Timeout: 30 * time.Second},
		snapshotBytes: s.m.reg.Counter("fvcd_cluster_snapshot_bytes_total",
			"Bytes of journal snapshot streamed to warming peers."),
		snapshots: s.m.reg.Counter("fvcd_cluster_snapshots_total",
			"Journal snapshots served to warming peers."),
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
		done:   make(chan struct{}),
	}
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
// are abandoned (the peer heals from a snapshot).
func (c *clusterState) mirrorWorker(s *Server, peer string, q chan []depjournal.Record) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
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
			case <-c.done:
				return false
			case <-time.After(retry.Backoff(mirrorBackoffBase, mirrorBackoffCap, attempt-1)):
			}
		}
		if err := faultinject.Fire(faultinject.MirrorDrop); err != nil {
			continue
		}
		req, err := http.NewRequest(http.MethodPost, peer+"/v1/internal/mirror", bytes.NewReader(body))
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

// close stops the mirror workers. Called from Shutdown after the HTTP
// drain, so no handler is still enqueueing.
func (c *clusterState) close() {
	close(c.done)
	c.wg.Wait()
}

// mirrorRecords fans a freshly appended batch out to every peer queue.
// Non-blocking by design: the client's request was already durable
// locally when this runs, and a slow peer must not add latency (or
// failure) to it. An overflowing queue drops the batch for that peer —
// counted — and the peer heals from a snapshot later.
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

// handleSnapshot streams the local journal's compacted snapshot — the
// byte image a local Compact would write — to a warming peer, or, with
// ?id=, the single-deployment image the anti-entropy reconciler
// fetches to repair one divergent deployment (404 when the id is not
// journaled here). Appends are not paused (depjournal copies under
// lock and encodes outside it); records landing mid-stream are simply
// not in this snapshot and reach the peer through the mirror instead.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "no durable journal on this replica")
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
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
			s.logf("cluster: per-id snapshot of %s failed after %d bytes: %v", id, n, err)
			panic(http.ErrAbortHandler)
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	n, err := s.journal.Snapshot(w)
	s.cluster.snapshotBytes.Add(n)
	s.cluster.snapshots.Inc()
	if err != nil {
		// Headers are gone; all we can do is cut the stream so the peer
		// sees a truncated (and therefore invalid) snapshot.
		s.logf("cluster: snapshot stream failed after %d bytes: %v", n, err)
		panic(http.ErrAbortHandler)
	}
	s.logf("cluster: served journal snapshot (%d bytes) to %s", n, r.RemoteAddr)
}

// handleDigest answers the replica's per-deployment digest map — the
// anti-entropy comparison input. Cheap enough to serve on demand
// (sha256 over journal records already in memory), and always computed
// fresh: a stale digest would mask exactly the divergence the endpoint
// exists to reveal.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "no durable journal on this replica")
		return
	}
	writeJSON(w, http.StatusOK, s.journal.Digests())
}

// handleMirror applies a peer's mirror batch to the local journal:
// registrations append (idempotent on known ids), mutations append to
// their deployment's history. Any locally cached entry for a mirrored
// id is invalidated — its state advanced on the owning shard, so the
// next local use must rebuild from the journal. A journal write
// failure answers 503 + Retry-After (the peer retries); a mutation
// whose registration never arrived here is answered 422 and dropped —
// retrying cannot fix it, and the gap heals at the next snapshot warm
// or anti-entropy round.
//
// Mutation records arrive stamped with the logical version they
// produce (applyPatch stamps them), which makes the apply idempotent
// and gap-safe against the anti-entropy repair path racing the mirror:
// a record at or below the local version is a duplicate (an AE pull
// already covered it, or the peer re-sent) and is skipped; a record
// more than one ahead means intervening mutations were lost here, and
// appending it would fabricate a history the owner never had — it is
// skipped too, and the reconciler pulls the authoritative copy
// instead. Unstamped records (version 0: a pre-stamping peer) apply
// unconditionally, the old behaviour.
func (s *Server) handleMirror(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "no durable journal on this replica")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var batch mirrorBatch
	if err := decodeBody(r, &batch); err != nil {
		writeDecodeError(w, err)
		return
	}
	applied := 0
	for _, rec := range batch.Records {
		var err error
		if rec.Op == "" {
			err = s.journal.Append(rec)
		} else if v, ok := s.journal.Version(rec.ID); ok && rec.BaseVersion != 0 && rec.BaseVersion != v+1 {
			if rec.BaseVersion <= v {
				s.cluster.mirrorStale.Inc()
			} else {
				s.logf("cluster: mirror gap for %s: record is version %d, local is %d (anti-entropy will repair)",
					rec.ID, rec.BaseVersion, v)
			}
			continue
		} else {
			err = s.journal.AppendMutations(rec.ID, []depjournal.Record{rec})
		}
		switch {
		case err == nil:
			applied++
			s.cache.Invalidate(rec.ID)
		case errors.Is(err, depjournal.ErrUnknownID):
			s.logf("cluster: mirror skipped %s mutation for unknown id %s", rec.Op, rec.ID)
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("mutation for id %s this replica never saw registered", rec.ID))
			s.cluster.mirrorApplied.Add(int64(applied))
			return
		default:
			s.setJournalErr(err)
			writeRetryable(w, http.StatusServiceUnavailable, "journal write failed: "+err.Error())
			s.cluster.mirrorApplied.Add(int64(applied))
			return
		}
	}
	s.setJournalErr(nil)
	s.cluster.mirrorApplied.Add(int64(applied))
	w.WriteHeader(http.StatusNoContent)
}

// maybeWarmFromPeer fills an absent (or empty) journal file from a
// peer snapshot before the journal opens, so a replaced replica starts
// with the cluster's full deployment history instead of an empty
// registry. Failure modes, by design:
//
//   - local journal already has content  → no fetch (local truth wins)
//   - no peer reachable at all           → cold start, NOT degraded
//     (the signature of a whole-cluster first boot)
//   - a peer answered but the fetch or its snapshot was bad — or the
//     faultinject.SnapshotFetch point fired — → cold start, readiness
//     DEGRADED (still serving; re-registrations and mirrors heal it,
//     a restart retries the warm)
func (s *Server) maybeWarmFromPeer(path string) {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return
	}
	if err := faultinject.Fire(faultinject.SnapshotFetch); err != nil {
		s.setWarmErr(fmt.Errorf("injected fault: %w", err))
		s.logf("cluster: peer warm failed (injected), starting cold: %v", err)
		return
	}
	anyResponded := false
	var lastErr error
	for _, peer := range s.cluster.peers {
		resp, err := s.cluster.client.Get(peer + "/v1/internal/snapshot")
		if err != nil {
			lastErr = err
			continue
		}
		anyResponded = true
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("read snapshot from %s: %w", peer, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("peer %s answered %d to snapshot fetch", peer, resp.StatusCode)
			continue
		}
		if err := installSnapshot(path, data); err != nil {
			lastErr = fmt.Errorf("snapshot from %s: %w", peer, err)
			continue
		}
		s.logf("cluster: warmed journal from %s (%d bytes)", peer, len(data))
		return
	}
	if !anyResponded {
		s.logf("cluster: no peer reachable for journal warm, starting cold (first boot?): %v", lastErr)
		return
	}
	s.setWarmErr(lastErr)
	s.logf("cluster: peer warm failed, starting cold and degraded: %v", lastErr)
}

// installSnapshot validates a fetched snapshot by fully replaying it,
// then installs it at the journal path atomically. Validation first: a
// corrupt snapshot must never brick the boot — depjournal.Open refuses
// interior corruption, and refusing here means we fall back to a cold
// start instead.
func installSnapshot(path string, data []byte) error {
	if len(data) == 0 {
		return errors.New("empty snapshot")
	}
	if _, err := depjournal.ParseSnapshot(data); err != nil {
		return fmt.Errorf("snapshot does not replay: %w", err)
	}
	if err := jsonlog.WriteAtomic(path, data); err != nil {
		return fmt.Errorf("install: %w", err)
	}
	return nil
}

// setWarmErr records a failed peer warm for /readyz.
func (s *Server) setWarmErr(err error) {
	s.stateMu.Lock()
	s.warmErr = err
	s.stateMu.Unlock()
}

// antiEntropyStore adapts the server to cluster.AntiEntropyStore: the
// digest side reads the journal, the apply side reinstalls the fetched
// records and invalidates any cached entry so the next use rebuilds
// from the repaired journal. Applies deliberately do NOT re-mirror —
// every replica reconciles for itself, so echoing a repair back into
// the mirror stream would only add duplicate deliveries.
type antiEntropyStore struct{ s *Server }

func (a antiEntropyStore) Digests() map[string]depjournal.DigestInfo {
	return a.s.journal.Digests()
}

func (a antiEntropyStore) Apply(id string, recs []depjournal.Record) error {
	if err := a.s.journal.Reinstall(id, recs); err != nil {
		return err
	}
	a.s.cache.Invalidate(id)
	return nil
}

// newAntiEntropy builds the reconciler once the journal is open.
// Called from New on clustered servers with a durable journal; the
// periodic loop starts only when an interval was configured, but Round
// stays drivable either way.
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
	ae.Start()
}

// AntiEntropyRound runs one reconciliation pass immediately and
// returns the number of deployments repaired. Deterministic driver for
// tests and operational tooling; returns 0 on non-clustered servers.
func (s *Server) AntiEntropyRound(ctx context.Context) int {
	if s.cluster == nil || s.cluster.antientropy == nil {
		return 0
	}
	return s.cluster.antientropy.Round(ctx)
}
