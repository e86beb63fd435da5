package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"fullview/internal/geom"
)

// testPoints returns n distinct points.
func testPoints(n int) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		pts[i] = geom.V(float64(i), float64(2*i))
	}
	return pts
}

// noState is the factory for kernels that need no worker state.
func noState() (struct{}, error) { return struct{}{}, nil }

func TestRunMatchesSequentialAcrossWorkers(t *testing.T) {
	points := testPoints(1003)
	kernel := func(_ struct{}, acc float64, i int, p geom.Vec) float64 {
		return acc + p.X*float64(i+1)
	}
	merge := func(dst, src float64) float64 { return dst + src }

	want, err := Run(context.Background(), points, 1, noState, kernel, merge)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7, 16, runtime.GOMAXPROCS(0)} {
		got, err := Run(context.Background(), points, workers, noState, kernel, merge)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}

func TestRunMergesInChunkOrder(t *testing.T) {
	const n = 537
	points := testPoints(n)
	kernel := func(_ struct{}, acc []int, i int, _ geom.Vec) []int { return append(acc, i) }
	merge := func(dst, src []int) []int { return append(dst, src...) }
	for _, workers := range []int{1, 2, 3, 7, 64, n, n + 9} {
		got, err := Run(context.Background(), points, workers, noState, kernel, merge)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d indices, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: index %d out of order (got %d)", workers, i, v)
			}
		}
	}
}

func TestRunPerWorkerState(t *testing.T) {
	// Each worker must get its own state instance, built once.
	var built atomic.Int64
	type state struct{ id int64 }
	newState := func() (*state, error) { return &state{id: built.Add(1)}, nil }
	points := testPoints(4000)
	const workers = 4
	got, err := Run(context.Background(), points, workers, newState,
		func(s *state, acc map[int64]int, _ int, _ geom.Vec) map[int64]int {
			if acc == nil {
				acc = make(map[int64]int)
			}
			acc[s.id]++
			return acc
		},
		func(dst, src map[int64]int) map[int64]int {
			for k, v := range src {
				dst[k] += v
			}
			return dst
		})
	if err != nil {
		t.Fatal(err)
	}
	if built.Load() != workers {
		t.Errorf("built %d states, want %d", built.Load(), workers)
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != len(points) {
		t.Errorf("processed %d points, want %d", total, len(points))
	}
}

func TestRunEmptyPoints(t *testing.T) {
	got, err := Run(context.Background(), nil, 8, noState,
		func(_ struct{}, acc int, _ int, _ geom.Vec) int { return acc + 1 },
		func(dst, src int) int { return dst + src })
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty sweep = %d, want zero value", got)
	}
}

func TestRunStateFactoryError(t *testing.T) {
	sentinel := errors.New("no state")
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), testPoints(100), workers,
			func() (struct{}, error) { return struct{}{}, sentinel },
			func(_ struct{}, acc int, _ int, _ geom.Vec) int { return acc },
			func(dst, _ int) int { return dst })
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error = %v, want sentinel", workers, err)
		}
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := Run(ctx, testPoints(10000), 4, noState,
		func(_ struct{}, acc int, _ int, _ geom.Vec) int { calls.Add(1); return acc + 1 },
		func(dst, src int) int { return dst + src })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("kernel ran %d times on a pre-cancelled context", calls.Load())
	}
}

func TestRunCancellationStopsPromptly(t *testing.T) {
	const n = 1 << 20
	points := testPoints(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var processed, atCancel atomic.Int64
	for _, workers := range []int{1, 4} {
		processed.Store(0)
		_, err := Run(ctx, points, workers, noState,
			func(_ struct{}, acc int, _ int, _ geom.Vec) int {
				// Cancel from inside the sweep once a little work is done:
				// workers must notice at their next periodic check. The
				// bound counts from the instant cancel() has returned, not
				// from the 100th point: this worker may be descheduled
				// between the two while its peers keep sweeping.
				if processed.Add(1) == 100 {
					cancel()
					atCancel.Store(processed.Load())
				}
				return acc + 1
			},
			func(dst, src int) int { return dst + src })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error = %v, want context.Canceled", workers, err)
		}
		// Every worker may run to its next check interval, no further.
		if got := processed.Load() - atCancel.Load(); got > int64(workers*cancelCheckInterval) {
			t.Errorf("workers=%d: processed %d points after cancellation", workers, got)
		}
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
	}
}

func TestMapReturnsResultsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		got, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapPropagatesFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		res, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			if i == 13 {
				return 0, sentinel
			}
			return i, nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error = %v, want sentinel", workers, err)
		}
		if res != nil {
			t.Errorf("workers=%d: results = %v, want nil on error", workers, res)
		}
	}
}

func TestMapErrorStopsNewItems(t *testing.T) {
	var started atomic.Int64
	sentinel := errors.New("early")
	_, err := Map(context.Background(), 1<<20, 4, func(i int) (int, error) {
		started.Add(1)
		return 0, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want sentinel", err)
	}
	if got := started.Load(); got > 64 {
		t.Errorf("%d items started after first error", got)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 100, 4, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestMapZeroItems(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(0 items) = %v, %v; want nil, nil", got, err)
	}
}

func TestNormalizeWorkers(t *testing.T) {
	cases := []struct{ workers, items, want int }{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{5, 100, 5},
		{8, 3, 3},
		{4, 0, 1},
	}
	for _, c := range cases {
		if got := normalizeWorkers(c.workers, c.items); got != c.want {
			t.Errorf("normalizeWorkers(%d, %d) = %d, want %d", c.workers, c.items, got, c.want)
		}
	}
}
