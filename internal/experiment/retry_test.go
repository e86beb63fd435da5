package experiment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fullview/internal/retry"
	"fullview/internal/rng"
	"fullview/internal/sweep"
)

// flakyOnce fails each listed trial's first attempt with a transient
// error and succeeds afterwards.
type flakyOnce struct {
	mu     sync.Mutex
	failed map[int]bool
	calls  map[int]int
}

func newFlakyOnce() *flakyOnce {
	return &flakyOnce{failed: make(map[int]bool), calls: make(map[int]int)}
}

func (f *flakyOnce) fn(failTrials map[int]bool) TrialFunc[syntheticTrial] {
	return func(trial int, r *rng.PCG) (syntheticTrial, error) {
		f.mu.Lock()
		f.calls[trial]++
		shouldFail := failTrials[trial] && !f.failed[trial]
		if shouldFail {
			f.failed[trial] = true
		}
		f.mu.Unlock()
		if shouldFail {
			return syntheticTrial{}, Transient(errors.New("simulated I/O blip"))
		}
		return syntheticFn(trial, r)
	}
}

func TestRunRetryRecoversTransient(t *testing.T) {
	const seed, trials = uint64(5), 12
	baseline, err := Run(seed, trials, 2, syntheticFn)
	if err != nil {
		t.Fatal(err)
	}
	flaky := newFlakyOnce()
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	results, err := RunRetry(context.Background(), policy, seed, trials, 2,
		flaky.fn(map[int]bool{2: true, 7: true}))
	if err != nil {
		t.Fatal(err)
	}
	// Retries replay the exact (seed, i) stream, so recovered trials are
	// bit-identical to never-failed ones.
	if !reflect.DeepEqual(results, baseline) {
		t.Error("retried results differ from clean run")
	}
	if flaky.calls[2] != 2 || flaky.calls[7] != 2 {
		t.Errorf("calls = %v, want exactly one retry for trials 2 and 7", flaky.calls)
	}
}

func TestRunRetryNonTransientFailsFast(t *testing.T) {
	hard := errors.New("hard failure")
	calls := 0
	policy := RetryPolicy{MaxAttempts: 5}
	_, err := RunRetry(context.Background(), policy, 1, 1, 1,
		func(trial int, r *rng.PCG) (int, error) {
			calls++
			return 0, hard
		})
	if !errors.Is(err, hard) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Errorf("non-transient error retried %d times", calls-1)
	}
}

func TestRunRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	policy := RetryPolicy{MaxAttempts: 3}
	_, err := RunRetry(context.Background(), policy, 1, 1, 1,
		func(trial int, r *rng.PCG) (int, error) {
			calls++
			return 0, Transient(errors.New("always down"))
		})
	if err == nil {
		t.Fatal("exhausted retries returned nil error")
	}
	if calls != 3 {
		t.Errorf("calls = %d, want MaxAttempts = 3", calls)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error lacks attempt count: %v", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("underlying transient cause lost: %v", err)
	}
}

func TestRunRetryHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	policy := RetryPolicy{MaxAttempts: 100, BaseDelay: 20 * time.Millisecond}
	start := time.Now()
	_, err := RunRetry(ctx, policy, 1, 1, 1,
		func(trial int, r *rng.PCG) (int, error) {
			return 0, Transient(errors.New("always down"))
		})
	if err == nil {
		t.Fatal("deadline-bounded retries returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry loop ignored deadline, ran %v", elapsed)
	}
}

func TestRetryNeverRetriesPanics(t *testing.T) {
	calls := 0
	policy := RetryPolicy{MaxAttempts: 5, Retryable: func(error) bool { return true }}
	_, err := RunRetry(context.Background(), policy, 1, 2, 1,
		func(trial int, r *rng.PCG) (int, error) {
			if trial == 1 {
				calls++
				panic("poisoned trial")
			}
			return trial, nil
		})
	var pe *sweep.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *sweep.PanicError, got %v", err)
	}
	if calls != 1 {
		t.Errorf("panicking trial ran %d times, want 1", calls)
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

func TestWithRetryDisabled(t *testing.T) {
	fn := func(trial int, r *rng.PCG) (int, error) { return trial, nil }
	if got := WithRetry(context.Background(), RetryPolicy{}, 1, fn); reflect.ValueOf(got).Pointer() != reflect.ValueOf(fn).Pointer() {
		t.Error("MaxAttempts ≤ 1 should return fn unchanged")
	}
}
