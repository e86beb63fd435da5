package fullview

import (
	"context"

	"fullview/internal/analytic"
	"fullview/internal/checkpoint"
	"fullview/internal/experiment"
	"fullview/internal/numeric"
	"fullview/internal/sweep"
)

// Fault-tolerance types. A long Monte-Carlo campaign fails in three
// characteristic ways — a trial panics, the process is killed, or a
// formula quietly degenerates to NaN — and each has a structured
// counterpart here: PanicError, Journal, and NonFiniteError. DESIGN.md
// ("Failure model") documents the policies.
type (
	// PanicError is a panic recovered inside a parallel sweep or
	// experiment trial, carrying the worker, item index, panicking
	// value, and captured stack. The panic never crosses goroutine
	// boundaries; it surfaces as this ordinary error.
	PanicError = sweep.PanicError
	// NonFiniteError reports a NaN or ±Inf detected by a numeric-health
	// guard, naming the quantity and the inputs that produced it. It
	// unwraps to ErrNonFinite.
	NonFiniteError = numeric.NonFiniteError
	// CheckpointHeader identifies what a checkpoint journal belongs to;
	// OpenCheckpoint refuses a journal whose header does not match.
	CheckpointHeader = checkpoint.Header
	// Journal is a JSONL record of completed trial results; every Record
	// appends and fsyncs one line, and a torn final line left by a crash
	// mid-append is cut when the journal is reopened.
	Journal = checkpoint.Journal
	// RetryPolicy bounds retries with capped exponential backoff, and
	// its ShouldRetry classifies which errors to retry; see Transient
	// and ErrTransient.
	RetryPolicy = experiment.RetryPolicy
)

// Fault-tolerance sentinels.
var (
	// ErrNonFinite matches any numeric-health violation via errors.Is.
	ErrNonFinite = numeric.ErrNonFinite
	// ErrCheckpointMismatch reports a journal whose header disagrees
	// with the requested run (different seed, kind, trial count, or
	// parameters).
	ErrCheckpointMismatch = checkpoint.ErrMismatch
	// ErrCheckpointCorrupt reports an unparseable journal interior.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrTransient classifies an error as retryable under the default
	// RetryPolicy; wrap failures with Transient to opt in.
	ErrTransient = experiment.ErrTransient
	// ErrBadTheta reports an effective angle outside (0, π].
	ErrBadTheta = analytic.ErrBadTheta
)

// Transient marks err retryable under the default RetryPolicy
// classifier.
func Transient(err error) error { return experiment.Transient(err) }

// OpenCheckpoint opens the trial journal at path; a missing file is
// created by the first Record. A journal that exists must carry exactly
// header h (its Version field is filled in automatically). Every Record
// appends one line and fsyncs it, so a crash mid-append can leave a
// torn final line: its trial reads as missing, and reopening cuts the
// tail before the next append.
func OpenCheckpoint(path string, h CheckpointHeader) (*Journal, error) {
	return checkpoint.Open(path, h)
}

// KNecessaryChecked is KNecessary with validation: it rejects
// θ ∉ (0, π] (including NaN and θ small enough to overflow the sector
// count) with ErrBadTheta instead of returning garbage.
func KNecessaryChecked(theta float64) (int, error) {
	return analytic.KNecessaryChecked(theta)
}

// KSufficientChecked is KSufficient with the same validation as
// KNecessaryChecked.
func KSufficientChecked(theta float64) (int, error) {
	return analytic.KSufficientChecked(theta)
}

// CheckFinite validates v is neither NaN nor ±Inf, returning a
// NonFiniteError naming quantity (with optional alternating key/value
// inputs) otherwise.
func CheckFinite(quantity string, v float64, inputs ...any) error {
	return numeric.Check(quantity, v, inputs...)
}

// SurveyCheckpointHeader returns the journal header for a resumable
// region survey of net's coverage: callers running their own
// checkpointed sweeps over a Checker should derive headers the same
// way so journals are refused when any run parameter changes.
func SurveyCheckpointHeader(kind string, seed uint64, trials int, params string) CheckpointHeader {
	return CheckpointHeader{Kind: kind, Seed: seed, Trials: trials, Params: params}
}

// RunResumableSurvey journals a trials-way partitioned computation: fn
// is called once per missing trial index with a deterministic
// per-trial RNG stream, each completed result is durably recorded in
// journal, and already-journaled trials are restored instead of
// re-executed. The returned slice is bit-identical to a run that never
// checkpointed, at any worker count (workers ≤ 0 selects GOMAXPROCS).
func RunResumableSurvey[T any](ctx context.Context, journal *Journal, seed uint64, trials, workers int, fn func(trial int, r *RNG) (T, error)) ([]T, error) {
	return experiment.RunResumable(ctx, journal, seed, trials, workers, fn)
}
