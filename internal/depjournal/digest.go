package depjournal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// DigestInfo summarizes one deployment's journaled content for
// anti-entropy comparison across replicas.
type DigestInfo struct {
	// Digest is the hex sha256 chained over the deployment's canonical
	// record stream: the exact JSONL lines SnapshotID would stream for
	// it, hashed in order. Because the stream is canonicalized first
	// (mutations folded into the registration whenever they fold — see
	// canonicalize), the digest is a pure function of the deployment's
	// logical state: replicas whose files differ only in compaction
	// history, duplicate registrations, or record arrival batching
	// still digest identically, and any dropped or divergent record
	// changes the digest.
	Digest string `json:"digest"`
	// Version is the deployment's logical version (its registration's
	// BaseVersion plus the mutation records after it — the served index
	// version), letting the reconciler order two divergent
	// copies: the higher version strictly supersedes (mutations have a
	// single writer — the ring owner — so versions never fork).
	Version uint64 `json:"version"`
}

// digestDep hashes one canonicalized deployment's record lines.
func digestDep(st stagedDep) (DigestInfo, error) {
	h := sha256.New()
	if _, err := encodeDep(json.NewEncoder(h), st); err != nil {
		return DigestInfo{}, err
	}
	return DigestInfo{
		Digest:  hex.EncodeToString(h.Sum(nil)),
		Version: st.reg.BaseVersion + uint64(len(st.muts)),
	}, nil
}

// Digests computes every journaled deployment's content digest with
// the same copy-under-lock discipline as SnapshotID: the per-deployment
// state is copied under the journal lock (record values and slice
// headers only), then the lock is released and hashing runs against
// the copy, so appends are never blocked behind sha256. A deployment
// whose canonical stream fails to encode is skipped (it also could not
// be snapshotted; the next round retries).
func (j *Journal) Digests() map[string]DigestInfo {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	deps := j.stageLocked()
	materialize := j.materialize
	j.mu.Unlock()

	out := make(map[string]DigestInfo, len(deps))
	for _, d := range deps {
		info, err := digestDep(canonicalize(d, materialize))
		if err != nil {
			continue
		}
		out[d.reg.ID] = info
	}
	return out
}

// Digest computes one deployment's content digest (see Digests).
func (j *Journal) Digest(id string) (DigestInfo, bool) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return DigestInfo{}, false
	}
	i, ok := j.ids[id]
	if !ok {
		j.mu.Unlock()
		return DigestInfo{}, false
	}
	d := j.deps[i]
	st := stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}
	materialize := j.materialize
	j.mu.Unlock()

	info, err := digestDep(canonicalize(st, materialize))
	if err != nil {
		return DigestInfo{}, false
	}
	return info, true
}
