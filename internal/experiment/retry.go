package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fullview/internal/sweep"
)

// ErrTransient marks an error as transient: an error wrapping
// ErrTransient is eligible for retry under the default RetryPolicy.
// Wrap with Transient or fmt.Errorf("...: %w", ErrTransient).
var ErrTransient = errors.New("transient")

// Transient marks err as transient for retry classification. A nil err
// stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// RetryPolicy bounds how a failed unit of work is retried: at most
// MaxAttempts attempts with exponential backoff capped at MaxDelay,
// and only for errors ShouldRetry accepts. The job manager
// (internal/jobs) retries a survey job's row group under it. The zero
// value retries nothing.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first run included);
	// values ≤ 1 disable retries.
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
