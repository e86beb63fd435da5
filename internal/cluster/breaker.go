package cluster

import (
	"sync"
	"time"
)

// Breaker states, exported through the fvcd_breaker_state gauge. The
// numeric order is chosen so the gauge reads as "how broken": 0 is a
// healthy closed breaker, 2 is a tripped-open one, 1 is the half-open
// probe state in between.
const (
	BreakerClosed   = 0
	BreakerHalfOpen = 1
	BreakerOpen     = 2
)

// Breaker is a per-shard circuit breaker. It exists to answer one
// question cheaply on the router's hot path: "is this shard worth an
// attempt right now?" — so that a dead owner costs the first few
// requests a connect timeout and every later request nothing.
//
// State machine: the breaker starts closed and counts *consecutive*
// failures; reaching the threshold trips it open. Open rejects every
// attempt until the cooldown elapses, then the next Allow admits a
// single half-open probe (concurrent callers keep being rejected while
// the probe is in flight). A successful probe closes the breaker and
// zeroes the count; a failed one re-opens it for another cooldown.
// Any success in the closed state resets the failure count, so the
// threshold really means consecutive — a shard that fails every fifth
// request under load never trips.
//
// All methods are safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	state     int
	openedAt  time.Time
	probing   bool
	now       func() time.Time // injectable for tests
}

// NewBreaker returns a closed breaker that trips after threshold
// consecutive failures and re-probes after cooldown. Non-positive
// arguments select the defaults (5 failures, 5s cooldown).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether the caller may attempt the shard. In the open
// state it admits exactly one caller per cooldown expiry as the
// half-open probe; that caller MUST report the outcome via Success or
// Failure, or the breaker stays half-open (rejecting everyone) forever.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open: the single probe is already out
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful attempt: closes the breaker and resets
// the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Release abandons an admitted attempt that proved nothing about the
// shard either way (request construction failed, or the client left
// mid-attempt): it clears the half-open probing flag so a later Allow
// can admit a real probe, and nothing else — no transition to closed,
// no failure-count reset.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// Failure records a failed attempt. In the closed state it counts
// toward the trip threshold; in the half-open state it re-opens
// immediately (the probe failed). Failures restart the cooldown clock.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	default: // already open (e.g. a straggler attempt admitted pre-trip)
		b.openedAt = b.now()
	}
}

// State returns the current state constant for export. An expired open
// breaker still reports open until an Allow transitions it — the gauge
// reflects what traffic would experience, not the wall clock.
func (b *Breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
