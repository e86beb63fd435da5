// Package lifetime models the temporal side of camera networks: duty
// cycling (each camera awake with probability p per epoch — the sleep
// parameter of Kumar et al. [6] that Section VII-B quotes) and battery
// failure processes (i.i.d. exponential lifetimes), with the induced
// decay of full-view coverage over time.
package lifetime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"fullview/internal/core"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// Validation errors.
var (
	ErrBadProbability = errors.New("lifetime: awake probability must be in [0, 1]")
	ErrBadMean        = errors.New("lifetime: mean lifetime must be positive")
	ErrBadThreshold   = errors.New("lifetime: coverage threshold must be in (0, 1]")
	ErrBadTime        = errors.New("lifetime: time must be non-negative")
)

// SampleAwake returns the sub-network of cameras awake this epoch: each
// camera independently stays on with probability p. With p = 1 the full
// network is returned (fresh copy); with p = 0 the network is empty.
func SampleAwake(net *sensor.Network, p float64, r *rng.PCG) (*sensor.Network, error) {
	if !(p >= 0) || p > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadProbability, p)
	}
	awake := make([]sensor.Camera, 0, net.Len())
	for i := 0; i < net.Len(); i++ {
		if r.Bool(p) {
			awake = append(awake, net.Camera(i))
		}
	}
	return sensor.NewNetwork(net.Torus(), awake)
}

// FailureSchedule fixes one realization of the battery-failure process:
// camera i dies at time Times[i], drawn i.i.d. Exponential(1/mean).
type FailureSchedule struct {
	net   *sensor.Network
	times []float64
}

// NewFailureSchedule draws a failure time for every camera.
func NewFailureSchedule(net *sensor.Network, meanLifetime float64, r *rng.PCG) (*FailureSchedule, error) {
	if !(meanLifetime > 0) || math.IsInf(meanLifetime, 0) {
		return nil, fmt.Errorf("%w: got %v", ErrBadMean, meanLifetime)
	}
	times := make([]float64, net.Len())
	for i := range times {
		// Inverse-CDF exponential draw; 1−U avoids log(0).
		times[i] = -meanLifetime * math.Log(1-r.Float64())
	}
	return &FailureSchedule{net: net, times: times}, nil
}

// FailureTimes returns a copy of the per-camera failure times.
func (fs *FailureSchedule) FailureTimes() []float64 {
	out := make([]float64, len(fs.times))
	copy(out, fs.times)
	return out
}

// AliveAt returns the sub-network of cameras still alive at time t
// (cameras fail exactly at their failure time).
func (fs *FailureSchedule) AliveAt(t float64) (*sensor.Network, error) {
	if t < 0 || math.IsNaN(t) {
		return nil, fmt.Errorf("%w: got %v", ErrBadTime, t)
	}
	alive := make([]sensor.Camera, 0, fs.net.Len())
	for i := 0; i < fs.net.Len(); i++ {
		if fs.times[i] > t {
			alive = append(alive, fs.net.Camera(i))
		}
	}
	return sensor.NewNetwork(fs.net.Torus(), alive)
}

// coverageAt returns the full-view-covered fraction of the k×k grid at
// time t, sweeping it with the given number of workers.
func (fs *FailureSchedule) coverageAt(ctx context.Context, t, theta float64, k, workers int) (float64, error) {
	net, err := fs.AliveAt(t)
	if err != nil {
		return 0, err
	}
	checker, err := core.NewChecker(net, theta)
	if err != nil {
		return 0, err
	}
	stats, err := checker.SurveyGridContext(ctx, k, 0, k, workers)
	if err != nil {
		return 0, err
	}
	return stats.FullViewFraction(), nil
}

// CoverageLifetime returns the time at which the full-view-covered
// fraction of the k×k sample grid (deploy.GridPoints) first drops below
// threshold — the
// network's coverage lifetime under this failure realization. Coverage
// only changes at failure instants and never recovers, so the answer is
// found by bisecting the sorted failure times (O(log n) grid sweeps).
// Returns 0 if coverage is below threshold from the start, and +Inf if
// it never drops (e.g. threshold met by the empty network is impossible,
// so +Inf only occurs for unreachable thresholds).
func (fs *FailureSchedule) CoverageLifetime(theta float64, k int, threshold float64) (float64, error) {
	return fs.CoverageLifetimeContext(context.Background(), theta, k, threshold, 1)
}

// CoverageLifetimeContext is CoverageLifetime with cancellation and
// parallel grid sweeps: each of the O(log n) bisection sweeps runs
// through the sweep engine with the given number of workers (GOMAXPROCS
// when workers ≤ 0). The lifetime found is identical at any worker
// count.
func (fs *FailureSchedule) CoverageLifetimeContext(ctx context.Context, theta float64, k int, threshold float64, workers int) (float64, error) {
	if !(threshold > 0) || threshold > 1 {
		return 0, fmt.Errorf("%w: got %v", ErrBadThreshold, threshold)
	}
	initial, err := fs.coverageAt(ctx, 0, theta, k, workers)
	if err != nil {
		return 0, err
	}
	if initial < threshold {
		return 0, nil
	}
	// Event times, ascending. Coverage just after event k is constant
	// until event k+1.
	events := fs.FailureTimes()
	sort.Float64s(events)
	// Find the first event index whose post-failure coverage is below
	// threshold. Coverage is non-increasing in the event index, so
	// binary search applies.
	lo, hi := 0, len(events) // lo: known ≥ threshold before event lo
	for lo < hi {
		mid := (lo + hi) / 2
		cov, err := fs.coverageAt(ctx, events[mid], theta, k, workers)
		if err != nil {
			return 0, err
		}
		if cov < threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(events) {
		return math.Inf(1), nil
	}
	return events[lo], nil
}
