// Package sweep is the repository's shared parallel execution engine
// for point sweeps: evaluating a coverage predicate (or any other
// kernel) over a large slice of sample points — the paper's √(n·ln n)
// dense grid, barrier samples, Monte-Carlo probe points — and folding
// the per-point results into one aggregate.
//
// Every sweeping layer of the repository (internal/core region surveys,
// internal/barrier, internal/holes grid labelling, internal/experiment
// point sweeps, the service's /query batches) runs through this
// package, so scheduling, worker-state management, cancellation, and
// panic isolation exist exactly once.
//
// # Fault tolerance
//
// A panic raised by a kernel, a map function, or a worker-state factory
// is recovered inside the engine and surfaced as a *PanicError through
// the normal error return: peers are cancelled, in-flight workers drain
// cleanly, and the process never crashes. See PanicError.
//
// # Determinism
//
// Run splits the points into at most `workers` contiguous chunks and
// merges the chunk aggregates in chunk order. As long as the caller's
// merge is exact for reordered *chunk boundaries* (integer counters,
// minima, order-preserving appends — everything this repository
// aggregates), the result is bit-identical to the sequential sweep at
// any worker count. Map assigns items to workers dynamically but stores
// results by index, so its output order is deterministic too.
package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"fullview/internal/geom"
)

// cancelCheckInterval is how many points a worker processes between
// context checks: coarse enough to stay off the hot path, fine enough
// that cancellation lands within microseconds of real work.
const cancelCheckInterval = 256

// normalizeWorkers resolves the worker-count convention used across the
// repository: ≤ 0 means GOMAXPROCS, and the count never exceeds the
// number of work items.
func normalizeWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run evaluates kernel over every point with the given number of
// workers (GOMAXPROCS when workers ≤ 0) and folds the results into one
// aggregate of type T.
//
// Each worker owns a private state S built once by newState — typically
// a cloned coverage checker over a shared immutable spatial index — and
// folds its contiguous chunk of points into a private accumulator
// (starting from T's zero value) by calling kernel(state, acc, i, p)
// for every point index i. Chunk accumulators are then combined with
// merge in chunk order.
//
// Run returns early with ctx.Err() when the context is cancelled
// (workers notice within cancelCheckInterval points), and with the
// factory's error when newState fails. On error the aggregate is T's
// zero value.
//
// A panic inside kernel or newState never crashes the process: the
// worker recovers it into a *PanicError carrying the item index, the
// worker id, and the captured stack, cancels its peers, and Run returns
// the *PanicError through the ordinary error path after the remaining
// workers drain.
func Run[S, T any](
	ctx context.Context,
	points []geom.Vec,
	workers int,
	newState func() (S, error),
	kernel func(state S, acc T, i int, p geom.Vec) T,
	merge func(dst, src T) T,
) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if len(points) == 0 {
		return zero, nil
	}
	workers = normalizeWorkers(workers, len(points))
	return runParallel(ctx, len(points), workers, merge,
		func(ctx context.Context, w, lo, hi int) (T, error) {
			return runChunk(ctx, w, lo, hi, points, newState, kernel)
		})
}

// runChunk executes one worker's contiguous chunk [lo, hi) with panic
// isolation: the state factory and every kernel call run under a
// recover guard that converts a panic into a *PanicError naming the
// item being processed (or the state setup) and this worker.
func runChunk[S, T any](
	ctx context.Context,
	worker, lo, hi int,
	points []geom.Vec,
	newState func() (S, error),
	kernel func(state S, acc T, i int, p geom.Vec) T,
) (T, error) {
	var acc, zero T
	var innerErr error
	item := -1 // -1 while constructing worker state
	if perr := guard(worker, &item, func() {
		state, err := newState()
		if err != nil {
			innerErr = err
			return
		}
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					innerErr = err
					return
				}
			}
			item = i
			acc = kernel(state, acc, i, points[i])
		}
	}); perr != nil {
		return zero, perr
	}
	if innerErr != nil {
		return zero, innerErr
	}
	return acc, nil
}

// selectError picks the error to report from per-worker results. The
// lowest worker index wins among real failures so the report is
// deterministic; cancellation errors that merely echo a peer's failure
// (the parent context is still live) never mask the failure that
// triggered them.
func selectError(parent context.Context, errs []error) error {
	var cancellation error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancellation == nil {
				cancellation = err
			}
			continue
		}
		return err
	}
	if err := parent.Err(); err != nil {
		return err
	}
	return cancellation
}

// Map runs fn over the indices 0..n-1 with the given number of workers
// (GOMAXPROCS when workers ≤ 0) and returns the results in index order.
// Items are handed to workers dynamically (work stealing), which suits
// heterogeneous-duration items such as Monte-Carlo trials; determinism
// must come from fn itself (e.g. a per-index RNG stream).
//
// The first error aborts the run: no further items start, in-flight
// items finish, and that error is returned with a nil slice. A
// cancelled context likewise aborts with ctx.Err().
//
// A panic inside fn is recovered into a *PanicError (item index, worker
// id, stack) and aborts the run exactly like an ordinary error; the
// process never crashes.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	workers = normalizeWorkers(workers, n)

	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, err := mapItem(0, i, fn)
			if err != nil {
				return nil, err
			}
			results[i] = out
		}
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || runCtx.Err() != nil {
					return
				}
				out, err := mapItem(w, i, fn)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
				results[i] = out
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// The parent context may have been cancelled mid-run, leaving a
	// partially-filled results slice; report that rather than returning
	// incomplete data.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// mapItem runs fn(i) under the worker's panic guard.
func mapItem[T any](worker, i int, fn func(i int) (T, error)) (T, error) {
	var out T
	var err error
	item := i
	if perr := guard(worker, &item, func() { out, err = fn(i) }); perr != nil {
		return out, perr
	}
	return out, err
}
