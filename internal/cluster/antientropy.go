package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/jsonlog"
	"fullview/internal/telemetry"
)

// Cluster-internal paths served by every replica and consumed by the
// anti-entropy reconciler. The server registers its handlers on these
// same constants, so the two sides cannot drift.
const (
	// DigestPath answers the replica's per-deployment digest map
	// (JSON: id → {digest, version}).
	DigestPath = "/v1/internal/digest"
	// SnapshotPath streams the single-deployment snapshot image named by
	// ?id= (404 when the id is not journaled).
	SnapshotPath = "/v1/internal/snapshot"
)

// AntiEntropyStore is the local side of the reconciler: the digest map
// it advertises and the apply path for repairs. internal/server
// implements it over the deployment journal and cache.
type AntiEntropyStore interface {
	// Digests returns the local per-deployment content digests.
	Digests() map[string]depjournal.DigestInfo
	// Apply installs one deployment's fetched snapshot records,
	// replacing any local copy that is behind; depjournal.ErrStale when
	// the local copy is already as new.
	Apply(id string, recs []depjournal.Record) error
}

// AntiEntropyConfig parameterises NewAntiEntropy.
type AntiEntropyConfig struct {
	// Peers are the base URLs of the other replicas (required,
	// non-empty).
	Peers []string
	// Local is the replica's own store (required).
	Local AntiEntropyStore
	// Interval is the gap between periodic rounds; Start is a no-op
	// when it is zero or negative (Round stays available for manual
	// driving).
	Interval time.Duration
	// Client is the HTTP client used to reach peers (default: a
	// dedicated client with a 30s timeout).
	Client *http.Client
	// Registry receives the reconciler's metrics (default: a private
	// registry, for tests that don't care).
	Registry *telemetry.Registry
	// Logger receives repair and error lines; nil discards them.
	Logger *log.Logger
}

// AntiEntropy is the background reconciler that makes mirror loss
// self-healing. Each round it fetches every peer's digest map, compares
// against its own, and pulls only the deployments it is missing or
// behind on — per-id snapshots, not whole journals — applying them
// through the store. Divergence of any cause (dropped mirror batches,
// kill -9 mid-batch, a wiped disk) converges to bit-identical digests,
// because digests are content-canonical (depjournal.DigestInfo) and
// mutations have a single writer per id (the ring owner), so "higher
// version wins" is a true repair rule, not a heuristic.
type AntiEntropy struct {
	cfg    AntiEntropyConfig
	client *http.Client

	rounds *telemetry.Counter
	pulls  *telemetry.Counter
	errs   *telemetry.Counter

	// ctx is cancelled by Stop, which aborts the periodic loop's
	// in-flight peer calls instead of waiting out their timeouts.
	ctx       context.Context
	stop      context.CancelFunc
	startOnce sync.Once
	wg        sync.WaitGroup
}

// RoundResult reports one reconciliation pass.
type RoundResult struct {
	// Pulled counts the deployments repaired.
	Pulled int
	// Reached reports whether any peer answered its digest request;
	// false means every peer was unreachable (a whole-cluster first boot
	// looks like this).
	Reached bool
	// Err is the first failure after a peer answered — a bad digest
	// answer, a failed snapshot fetch, or a failed apply — or nil. A
	// pull that lost the race to a newer local copy is not a failure.
	Err error
}

// errUnreachable marks a peer call that got no HTTP answer at all.
var errUnreachable = errors.New("peer unreachable")

// NewAntiEntropy builds a reconciler. It does not start the periodic
// loop — call Start for that, or drive Round directly.
func NewAntiEntropy(cfg AntiEntropyConfig) (*AntiEntropy, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: anti-entropy needs peers")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: anti-entropy needs a local store")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	a := &AntiEntropy{
		cfg:    cfg,
		client: cfg.Client,
	}
	a.ctx, a.stop = context.WithCancel(context.Background())
	a.rounds = cfg.Registry.Counter("fvcd_antientropy_rounds_total",
		"Anti-entropy reconciliation rounds completed.")
	a.pulls = cfg.Registry.Counter("fvcd_antientropy_pulls_total",
		"Deployments repaired by pulling a peer's per-id snapshot.")
	a.errs = cfg.Registry.Counter("fvcd_antientropy_errors_total",
		"Anti-entropy steps that failed (digest fetch, snapshot fetch, apply); retried next round.")
	return a, nil
}

// Start launches the periodic loop (no-op when Interval <= 0 or after a
// previous Start). Stop it with Stop.
func (a *AntiEntropy) Start() {
	if a.cfg.Interval <= 0 {
		return
	}
	a.startOnce.Do(func() {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			t := time.NewTicker(a.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-a.ctx.Done():
					return
				case <-t.C:
					ctx, cancel := context.WithTimeout(a.ctx, a.cfg.Interval*4+time.Second)
					a.Round(ctx)
					cancel()
				}
			}
		}()
	})
}

// Stop halts the periodic loop, cancelling an in-flight round's peer
// calls, and waits for it to return. Safe to call without Start and to
// call twice.
func (a *AntiEntropy) Stop() {
	a.stop()
	a.wg.Wait()
}

// Round runs one reconciliation pass over every peer and reports what
// it repaired and whether any peer answered. Errors are counted,
// logged, and skipped — a partitioned peer must not stall repairs from
// reachable ones — so a Round against an unreachable cluster is a cheap
// no-op, not a failure.
func (a *AntiEntropy) Round(ctx context.Context) RoundResult {
	var res RoundResult
	local := a.cfg.Local.Digests()
	for _, peer := range a.cfg.Peers {
		remote, err := a.fetchDigests(ctx, peer)
		if err != nil {
			a.errs.Inc()
			a.logf("antientropy: digests from %s: %v", peer, err)
			if !errors.Is(err, errUnreachable) {
				res.Reached = true
				res.fail(fmt.Errorf("digests from %s: %w", peer, err))
			}
			continue
		}
		res.Reached = true
		// Sorted ids make repair order (and its logs) deterministic.
		ids := make([]string, 0, len(remote))
		for id := range remote {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			theirs := remote[id]
			ours, have := local[id]
			if have && ours.Version >= theirs.Version {
				// Equal versions with unequal digests would mean the
				// single-writer invariant broke; surface it, never
				// "repair" sideways or backwards.
				if ours.Version == theirs.Version && ours.Digest != theirs.Digest {
					a.logf("antientropy: %s diverged from %s at equal version %d (ours %s, theirs %s)",
						id, peer, ours.Version, ours.Digest, theirs.Digest)
				}
				continue
			}
			if err := a.pull(ctx, peer, id); err != nil {
				if errors.Is(err, depjournal.ErrStale) {
					// The local copy advanced past the digest snapshot
					// while this round ran (a write or mirror apply
					// landed); the journal's locked version gate refused
					// the rollback. Not a fault — the next round compares
					// fresh digests.
					a.logf("antientropy: pull %s from %s lost the race to a newer local copy: %v", id, peer, err)
					continue
				}
				a.errs.Inc()
				a.logf("antientropy: pull %s from %s: %v", id, peer, err)
				res.fail(fmt.Errorf("pull %s from %s: %w", id, peer, err))
				continue
			}
			// Track the repair locally so a later peer in this round is
			// compared against the post-repair version.
			local[id] = theirs
			res.Pulled++
			a.pulls.Inc()
			a.logf("antientropy: repaired %s from %s (version %d)", id, peer, theirs.Version)
		}
	}
	a.rounds.Inc()
	return res
}

// fail records err as the round's failure unless an earlier one was.
func (r *RoundResult) fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// fetchDigests retrieves and parses one peer's digest map.
func (a *AntiEntropy) fetchDigests(ctx context.Context, peer string) (map[string]depjournal.DigestInfo, error) {
	if err := faultinject.Fire(faultinject.DigestFetch); err != nil {
		return nil, fmt.Errorf("%w: %w", errUnreachable, err)
	}
	body, err := a.get(ctx, peer+DigestPath)
	if err != nil {
		return nil, err
	}
	return ParseDigests(body)
}

// pull fetches one deployment's snapshot from peer and applies it.
func (a *AntiEntropy) pull(ctx context.Context, peer, id string) error {
	body, err := a.get(ctx, peer+SnapshotPath+"?id="+url.QueryEscape(id))
	if err != nil {
		return err
	}
	recs, err := depjournal.ParseSnapshot(body)
	if err != nil {
		return err
	}
	for i := range recs {
		if recs[i].ID != id {
			return fmt.Errorf("snapshot record %d is for %q, want %q", i, recs[i].ID, id)
		}
	}
	if err := faultinject.Fire(faultinject.AntiEntropyApply); err != nil {
		return err
	}
	return a.cfg.Local.Apply(id, recs)
}

// get fetches url and returns the body of a 200 answer.
func (a *AntiEntropy) get(ctx context.Context, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errUnreachable, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d", u, resp.StatusCode)
	}
	return body, nil
}

func (a *AntiEntropy) logf(format string, args ...any) {
	if a.cfg.Logger != nil {
		a.cfg.Logger.Printf(format, args...)
	}
}

// ParseDigests decodes a digest-endpoint body: a single JSON object
// mapping deployment ids to their DigestInfo. The decode is strict —
// unknown fields, trailing documents, missing or non-hex digests, and
// empty ids are all refused — because a malformed digest map must fail
// the round loudly rather than trigger bogus pulls.
func ParseDigests(data []byte) (map[string]depjournal.DigestInfo, error) {
	var out map[string]depjournal.DigestInfo
	if err := jsonlog.Decode(data, &out); err != nil {
		return nil, fmt.Errorf("cluster: digest map: %w", err)
	}
	for id, d := range out {
		if id == "" {
			return nil, fmt.Errorf("cluster: digest map: empty deployment id")
		}
		raw, err := hex.DecodeString(d.Digest)
		if err != nil || len(raw) != 32 {
			return nil, fmt.Errorf("cluster: digest map: %s has malformed digest %q", id, d.Digest)
		}
	}
	return out, nil
}
