// Package retry is the backoff arithmetic shared by every retry loop in
// this module — experiment trials, job bands, the cluster router and
// the journal mirror — plus the cluster's Retry-After header contract.
// Each caller keeps its own constants and jitter width; only the
// arithmetic lives here.
package retry

import (
	"context"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"
)

// Backoff returns the wait before retry number attempt (0-based): base
// doubled attempt times, capped at limit. A limit ≤ 0 means uncapped
// (the doubling saturates instead of overflowing); a base ≤ 0 means no
// wait.
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && (limit <= 0 || d < limit); i++ {
		if d > math.MaxInt64/2 {
			return math.MaxInt64
		}
		d *= 2
	}
	if limit > 0 && d > limit {
		return limit
	}
	return d
}

// Jitter spreads d uniformly over [d·(1−frac), d·(1+frac)), so callers
// that fail at the same instant do not retry in lockstep.
func Jitter(d time.Duration, frac float64) time.Duration {
	span := int64(float64(d) * 2 * frac)
	if span <= 0 {
		return d
	}
	return d - time.Duration(span/2) + time.Duration(rand.Int64N(span))
}

// After returns the Retry-After value every retryable 429/503 in the
// cluster carries: one second jittered ±20%, written as fractional
// seconds ("0.93"). RFC 9110 specifies whole delta-seconds, but
// rounding would erase the jitter; a client that truncates still lands
// on a sane 0 or 1.
func After() string {
	return strconv.FormatFloat(Jitter(time.Second, 0.2).Seconds(), 'f', 2, 64)
}

// maxAfterSeconds is the largest Retry-After a time.Duration can hold.
const maxAfterSeconds = float64(math.MaxInt64) / float64(time.Second)

// ParseAfter parses a Retry-After value in fractional seconds,
// surrounding whitespace allowed. ok is false for an absent, malformed,
// negative, NaN or out-of-range value, and the caller falls back to its
// own backoff.
func ParseAfter(s string) (d time.Duration, ok bool) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || !(v >= 0 && v < maxAfterSeconds) {
		return 0, false
	}
	return time.Duration(v * float64(time.Second)), true
}

// Sleep waits for d or until ctx is done, whichever comes first, and
// returns ctx.Err() if ctx ended the wait (or had already ended it).
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
