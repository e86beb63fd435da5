package sweep

import (
	"context"
	"sync"

	"fullview/internal/geom"
)

// BatchSize is the number of consecutive points a batch kernel receives
// per call. It matches cancelCheckInterval — a batch is also the unit of
// cancellation polling — and is small enough that per-worker batch
// scratch stays cache-resident. Grid surveys raster row blocks of at
// least BatchSize points.
const BatchSize = 256

// groupPoints is the sample-point budget of one row group: large
// enough that a group's sweep gives every worker many BatchSize
// batches, so sweep start and barrier costs and the group's journal
// fsync amortise over real work.
const groupPoints = 64 * BatchSize

// GroupRows is the number of grid rows a resumable survey evaluates per
// group — one sweep and one journal append per group:
// ⌈groupPoints/grid⌉ rows, but never more than half the grid, so every
// grid of two or more rows runs as at least two groups and a crash or
// throttle can land between them.
func GroupRows(grid int) int {
	return max(1, min((groupPoints+grid-1)/grid, (grid+1)/2))
}

// RunBatch is Run for kernels that evaluate whole point batches at
// once: RunRanges over the point indices in BatchSize ranges, calling
// kernel(state, acc, lo, points[lo:hi]) per range.
func RunBatch[S, T any](
	ctx context.Context,
	points []geom.Vec,
	workers int,
	newState func() (S, error),
	kernel func(state S, acc T, lo int, pts []geom.Vec) T,
	merge func(dst, src T) T,
) (T, error) {
	return RunRanges(ctx, len(points), BatchSize, workers, newState,
		func(state S, acc T, lo, hi int) T { return kernel(state, acc, lo, points[lo:hi]) },
		merge)
}

// RunRanges is Run for kernels that evaluate whole index ranges at
// once — point batches, or blocks of grid rows: the items [0, n) are
// split into contiguous worker chunks as in Run, and each worker walks
// its chunk in ranges of at most batch items (batch ≥ 1), calling
// kernel(state, acc, lo, hi) per range [lo, hi). Everything else —
// worker-state factories, chunk-order merging, cancellation (checked
// before every range, so a cancelled sweep stops within one range per
// worker), and panic containment (a *PanicError's Item is the range's
// first index) — behaves exactly like Run.
//
// Because chunk and range boundaries only affect how items are grouped
// (never which items are evaluated, nor their order within the fold),
// a kernel whose per-item results are grouping-independent and whose
// merge is exact at chunk boundaries gives results bit-identical to the
// sequential sweep at any worker count, just like Run.
func RunRanges[S, T any](
	ctx context.Context,
	n, batch, workers int,
	newState func() (S, error),
	kernel func(state S, acc T, lo, hi int) T,
	merge func(dst, src T) T,
) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if n <= 0 {
		return zero, nil
	}
	batch = max(batch, 1)
	workers = normalizeWorkers(workers, n)
	return runParallel(ctx, n, workers, merge,
		func(ctx context.Context, w, lo, hi int) (T, error) {
			return runRangeChunk(ctx, w, lo, hi, batch, newState, kernel)
		})
}

// runRangeChunk executes one worker's contiguous chunk [lo, hi) in
// ranges of at most batch items under the same panic guard as
// runChunk; the guarded item index is the current range's first item.
func runRangeChunk[S, T any](
	ctx context.Context,
	worker, lo, hi, batch int,
	newState func() (S, error),
	kernel func(state S, acc T, lo, hi int) T,
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
		for b := lo; b < hi; b += batch {
			if err := ctx.Err(); err != nil {
				innerErr = err
				return
			}
			item = b
			acc = kernel(state, acc, b, min(b+batch, hi))
		}
	}); perr != nil {
		return zero, perr
	}
	if innerErr != nil {
		return zero, innerErr
	}
	return acc, nil
}

// runParallel is the fan-out/merge core shared by Run and RunRanges: it
// splits n items into at most `workers` contiguous chunks, runs chunkFn
// per chunk, surfaces the deterministic error choice of selectError,
// and merges the chunk aggregates in chunk order. workers must already
// be normalized.
func runParallel[T any](
	ctx context.Context,
	n, workers int,
	merge func(dst, src T) T,
	chunkFn func(ctx context.Context, w, lo, hi int) (T, error),
) (T, error) {
	var zero T
	if workers == 1 {
		return chunkFn(ctx, 0, 0, n)
	}

	// Contiguous chunks; merged in chunk order below, so the fold order
	// over items is exactly the sequential order at every boundary.
	chunk := (n + workers - 1) / workers
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	partials := make([]T, workers)
	used := make([]bool, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		used[w] = true
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc, err := chunkFn(ctx, w, lo, hi)
			if err != nil {
				errs[w] = err
				cancel()
				return
			}
			partials[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()

	if err := selectError(parent, errs); err != nil {
		return zero, err
	}
	acc := zero
	first := true
	for w := 0; w < workers; w++ {
		if !used[w] {
			continue
		}
		if first {
			acc = partials[w]
			first = false
			continue
		}
		acc = merge(acc, partials[w])
	}
	return acc, nil
}
