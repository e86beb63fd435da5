package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fullview/internal/retry"
	"fullview/internal/rng"
	"fullview/internal/sweep"
)

// ErrTransient marks an error as transient: a trial failing with an
// error wrapping ErrTransient is eligible for retry under the default
// RetryPolicy. Wrap with Transient or fmt.Errorf("...: %w", ErrTransient).
var ErrTransient = errors.New("transient")

// Transient marks err as transient for retry classification. A nil err
// stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// RetryPolicy bounds how trial errors are retried: at most MaxAttempts
// attempts per trial with exponential backoff capped at MaxDelay, all
// inside the deadline of the context threaded through RunContext /
// RunRetry. The zero value retries nothing.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per trial (first run
	// included); values ≤ 1 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles each
	// further retry. Zero means no waiting between attempts.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Retryable classifies errors. nil selects the default: retry only
	// errors marked with ErrTransient. Panics (surfaced as
	// *sweep.PanicError) and context cancellation are never retried,
	// regardless of this predicate.
	Retryable func(error) bool
}

// ShouldRetry applies the policy's classifier with the non-negotiable
// exclusions: programming errors (panics) and cancellation.
func (p RetryPolicy) ShouldRetry(err error) bool {
	var pe *sweep.PanicError
	if errors.As(err, &pe) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return errors.Is(err, ErrTransient)
}

// WithRetry wraps a trial function so transient failures are retried
// under the policy. Every retry re-runs the trial on a freshly
// reconstructed (seed, trial) RNG stream — the generator handed to the
// failed attempt is partially consumed — so a retry that succeeds
// produces exactly the result an untroubled first attempt would have.
// Backoff waits respect ctx: once the context is cancelled or its
// deadline passes, the wrapper returns the last trial error joined with
// ctx.Err() instead of waiting further.
//
// Panics are NOT retried: they escape to the sweep engine, which
// converts them into a *sweep.PanicError and aborts the run.
func WithRetry[T any](ctx context.Context, policy RetryPolicy, seed uint64, fn TrialFunc[T]) TrialFunc[T] {
	if policy.MaxAttempts <= 1 {
		return fn
	}
	return func(trial int, r *rng.PCG) (T, error) {
		out, err := fn(trial, r)
		for attempt := 0; err != nil && attempt < policy.MaxAttempts-1; attempt++ {
			if !policy.ShouldRetry(err) {
				return out, err
			}
			if waitErr := retry.Sleep(ctx, retry.Backoff(policy.BaseDelay, policy.MaxDelay, attempt)); waitErr != nil {
				return out, fmt.Errorf("experiment: retry abandoned: %w", errors.Join(err, waitErr))
			}
			out, err = fn(trial, rng.New(seed, uint64(trial)))
		}
		if err != nil {
			return out, fmt.Errorf("experiment: after %d attempts: %w", policy.MaxAttempts, err)
		}
		return out, nil
	}
}

// RunRetry is RunContext with bounded per-trial retries: fn is wrapped
// with WithRetry under the policy, and the context's deadline bounds
// both trial execution and backoff waits.
func RunRetry[T any](
	ctx context.Context,
	policy RetryPolicy,
	seed uint64,
	trials, parallelism int,
	fn TrialFunc[T],
) ([]T, error) {
	return RunContext(ctx, seed, trials, parallelism, WithRetry(ctx, policy, seed, fn))
}
