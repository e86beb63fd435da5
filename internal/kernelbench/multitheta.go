package kernelbench

import (
	"fullview/internal/core"
	"fullview/internal/sweep"
)

// multiThetaSetup builds the fused θ-sweep case: evaluate the full
// per-point diagnosis for every θ in Thetas over one fixed deployment.
// This is the per-point shape of the θ-sweep experiments in
// internal/figures (pointprob, gap, thetasweep).
//
// Implementation under measurement: core.MultiChecker — one candidate
// gather, one sort, and one max-gap scan per point serving the whole
// θ-list, plus two O(m) sector-occupancy passes per θ. The baseline this
// replaced (BENCH_baseline.json) ran one Checker per θ over a shared
// spatial index, re-gathering and re-sorting the viewed directions per θ.
func multiThetaSetup() (func(int), error) {
	net, err := homogNetwork(1000)
	if err != nil {
		return nil, err
	}
	checker, err := core.NewMultiChecker(net, Thetas)
	if err != nil {
		return nil, err
	}
	pts := samplePoints(9)
	return func(i int) {
		p := pts[i&(pointPool-1)]
		rep := checker.Evaluate(p)
		sink += rep.NumCovering
	}, nil
}

// multiThetaBatchSetup is multiThetaSetup through the batch kernel:
// identical network, θ-list, and point pool, evaluated sweep.BatchSize
// points per iteration by MultiChecker.EvaluateBatch. Reports are
// bit-identical to Evaluate per point; the case measures the batch
// entry point against its point-at-a-time twin.
func multiThetaBatchSetup() (func(int), error) {
	net, err := homogNetwork(1000)
	if err != nil {
		return nil, err
	}
	checker, err := core.NewMultiChecker(net, Thetas)
	if err != nil {
		return nil, err
	}
	pts := samplePoints(9)
	return func(i int) {
		lo := (i * sweep.BatchSize) & (pointPool - 1)
		checker.EvaluateBatch(pts[lo:lo+sweep.BatchSize], func(_ int, rep core.MultiReport) {
			sink += rep.NumCovering
		})
	}, nil
}
