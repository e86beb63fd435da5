package sweep

import (
	"context"
	"sync"

	"fullview/internal/geom"
)

// BatchSize is the number of consecutive points a batch kernel receives
// per call. It matches cancelCheckInterval — a batch is also the unit of
// cancellation polling — and is small enough that per-worker batch
// scratch stays cache-resident while large enough to amortise the
// cell-sorted gather's per-batch setup.
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
// once: each worker walks its contiguous chunk in BatchSize sub-slices
// and calls kernel(state, acc, lo, pts) per sub-slice, where lo is the
// global index of pts[0]. Everything else — worker-state factories,
// chunk-order merging, cancellation (checked before every sub-slice),
// and panic containment (a *PanicError's Item is the batch's first
// index) — behaves exactly like Run.
//
// Because chunk and batch boundaries only affect how points are grouped
// (never which points are evaluated, nor their order within the fold),
// a kernel whose per-point results are grouping-independent and whose
// merge is exact at chunk boundaries gives results bit-identical to the
// sequential sweep at any worker count, just like Run.
func RunBatch[S, T any](
	ctx context.Context,
	points []geom.Vec,
	workers int,
	newState func() (S, error),
	kernel func(state S, acc T, lo int, pts []geom.Vec) T,
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
			return runBatchChunk(ctx, w, lo, hi, points, newState, kernel)
		})
}

// runBatchChunk executes one worker's contiguous chunk [lo, hi) in
// BatchSize sub-slices under the same panic guard as runChunk; the
// guarded item index is the current batch's first point.
func runBatchChunk[S, T any](
	ctx context.Context,
	worker, lo, hi int,
	points []geom.Vec,
	newState func() (S, error),
	kernel func(state S, acc T, lo int, pts []geom.Vec) T,
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
		for b := lo; b < hi; b += BatchSize {
			if err := ctx.Err(); err != nil {
				innerErr = err
				return
			}
			e := b + BatchSize
			if e > hi {
				e = hi
			}
			item = b
			acc = kernel(state, acc, b, points[b:e])
		}
	}); perr != nil {
		return zero, perr
	}
	if innerErr != nil {
		return zero, innerErr
	}
	return acc, nil
}

// runParallel is the fan-out/merge core shared by Run and RunBatch: it
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
