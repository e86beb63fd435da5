package server

import (
	"context"
	"errors"
	"time"

	"fullview/internal/telemetry"
)

// errSaturated reports that a request waited QueueTimeout for an
// admission slot without getting one.
var errSaturated = errors.New("server: admission queue timed out")

// admission is a bounded-concurrency gate: a channel semaphore of
// MaxInFlight slots plus a queue-wait timeout. It exists so a burst of
// expensive survey requests degrades into prompt 429s instead of an
// unbounded goroutine pile-up — the service's equivalent of load
// shedding.
type admission struct {
	slots   chan struct{}
	timeout time.Duration
	queued  *telemetry.Gauge
}

func newAdmission(maxInFlight int, timeout time.Duration, queued *telemetry.Gauge) *admission {
	return &admission{
		slots:   make(chan struct{}, maxInFlight),
		timeout: timeout,
		queued:  queued,
	}
}

// acquire takes an admission slot, waiting up to the queue timeout.
// It returns errSaturated on timeout and ctx.Err() when the requester
// disconnects while queued. The fast path (free slot) never allocates
// a timer.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	a.queued.Inc()
	defer a.queued.Dec()
	t := time.NewTimer(a.timeout)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-t.C:
		return errSaturated
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (a *admission) release() { <-a.slots }
