package experiment

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fullview/internal/retry"
	"fullview/internal/sweep"
)

// TestRetryNeverRetriesPanics: a panic (surfaced as *sweep.PanicError)
// and cancellation are never retried, whatever the policy's classifier
// says; the default classifier retries only ErrTransient.
func TestRetryNeverRetriesPanics(t *testing.T) {
	always := RetryPolicy{MaxAttempts: 5, Retryable: func(error) bool { return true }}
	for _, err := range []error{
		&sweep.PanicError{Value: "poisoned trial"},
		fmt.Errorf("trial 1: %w", &sweep.PanicError{Value: "poisoned trial"}),
		context.Canceled,
		context.DeadlineExceeded,
	} {
		if always.ShouldRetry(err) {
			t.Errorf("ShouldRetry(%v) = true, want false", err)
		}
	}
	if !always.ShouldRetry(errors.New("hard failure")) {
		t.Error("a custom classifier was not consulted")
	}
	var def RetryPolicy
	if def.ShouldRetry(errors.New("hard failure")) || !def.ShouldRetry(Transient(errors.New("blip"))) {
		t.Error("the default classifier must retry exactly the ErrTransient errors")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond, // capped
		50 * time.Millisecond,
	}
	for i, w := range want {
		if got := retry.Backoff(p.BaseDelay, p.MaxDelay, i); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
	zero := RetryPolicy{}
	if got := retry.Backoff(zero.BaseDelay, zero.MaxDelay, 3); got != 0 {
		t.Errorf("zero-policy backoff = %v", got)
	}
	// Uncapped growth must not overflow into negative durations for sane
	// retry counts.
	uncapped := RetryPolicy{BaseDelay: time.Second}
	if got := retry.Backoff(uncapped.BaseDelay, uncapped.MaxDelay, 10); got != 1024*time.Second {
		t.Errorf("uncapped backoff(10) = %v", got)
	}
}
