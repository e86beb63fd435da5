package core

import (
	"fmt"

	"fullview/internal/geom"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// ThetaReport is the verdict of one effective angle inside a
// MultiReport.
type ThetaReport struct {
	// Theta is the effective angle this verdict belongs to.
	Theta float64
	// FullView reports full-view coverage (Definition 1) at this θ.
	FullView bool
	// Necessary reports the geometric necessary condition (2θ-sectors).
	Necessary bool
	// Sufficient reports the geometric sufficient condition (θ-sectors).
	Sufficient bool
}

// MultiReport is the per-point diagnosis of a MultiChecker: the
// θ-independent quantities once, plus one verdict per effective angle.
type MultiReport struct {
	// NumCovering is the number of cameras covering the point.
	NumCovering int
	// MaxGap is the widest circular gap between viewed directions (2π
	// when fewer than two cameras cover the point).
	MaxGap float64
	// PerTheta holds one verdict per configured θ, in Thetas() order.
	// The slice is reused by the next Evaluate call on the same
	// MultiChecker; copy it if it must outlive the call.
	PerTheta []ThetaReport
}

// MultiChecker evaluates the full per-point diagnosis for a whole list
// of effective angles from a single candidate gather. The expensive,
// θ-independent work — spatial query, cover tests, viewed-direction
// gather, sort, max-gap scan — happens once per point; each θ adds only
// a gap comparison and two O(m) sector-occupancy passes. It is the one
// per-point evaluator of the package: a Checker is a one-θ MultiChecker.
//
// A MultiChecker reuses internal buffers and must not be shared between
// goroutines; Clone derives an independent evaluator sharing the
// immutable spatial index.
type MultiChecker struct {
	index     spatial.Source
	thetas    []float64
	twoThetas []float64 // 2·thetas[i], hoisted out of the per-point loop
	occs      []thetaOccupancy
	dirBuf    []float64
	perTheta  []ThetaReport
	batch     spatial.BatchScratch // batch gather scratch
}

// thetaOccupancy pairs the two partition evaluators of one θ.
type thetaOccupancy struct {
	necessary  occupancy // width 2θ
	sufficient occupancy // width θ
}

// NewMultiChecker builds a MultiChecker for the network with effective
// angles thetas, each accepted by CheckTheta. The list must be
// non-empty.
func NewMultiChecker(net *sensor.Network, thetas []float64) (*MultiChecker, error) {
	return NewMultiCheckerFromIndex(spatial.NewIndex(net), thetas)
}

// NewMultiCheckerFromIndex builds a MultiChecker sharing an existing
// immutable spatial index, amortising index construction the same way
// NewCheckerFromIndex does.
func NewMultiCheckerFromIndex(ix *spatial.Index, thetas []float64) (*MultiChecker, error) {
	return NewMultiCheckerFromSource(ix, thetas)
}

// NewMultiCheckerFromSource builds a MultiChecker over any
// spatial.Source — an immutable Index or a pinned View (see
// NewCheckerFromSource for version semantics).
func NewMultiCheckerFromSource(ix spatial.Source, thetas []float64) (*MultiChecker, error) {
	if len(thetas) == 0 {
		return nil, fmt.Errorf("core: MultiChecker needs at least one effective angle")
	}
	m := &MultiChecker{
		index:     ix,
		thetas:    append([]float64(nil), thetas...),
		twoThetas: make([]float64, 0, len(thetas)),
		occs:      make([]thetaOccupancy, 0, len(thetas)),
		dirBuf:    make([]float64, 0, 64),
		perTheta:  make([]ThetaReport, len(thetas)),
	}
	for _, theta := range thetas {
		if err := CheckTheta(theta); err != nil {
			return nil, err
		}
		necessary, err := newOccupancy(2 * theta)
		if err != nil {
			return nil, fmt.Errorf("core: necessary partition (θ=%v): %w", theta, err)
		}
		sufficient, err := newOccupancy(theta)
		if err != nil {
			return nil, fmt.Errorf("core: sufficient partition (θ=%v): %w", theta, err)
		}
		m.occs = append(m.occs, thetaOccupancy{necessary: necessary, sufficient: sufficient})
		// Doubling is exact in floating point, so the hoisted threshold
		// is bit-identical to an inline 2*θ.
		m.twoThetas = append(m.twoThetas, 2*theta)
	}
	return m, nil
}

// Clone returns an independent MultiChecker over the same network and
// θ-list: the immutable spatial index and sector partitions are shared,
// every mutable buffer is private. Use it to give each goroutine of a
// parallel sweep its own evaluator.
func (m *MultiChecker) Clone() *MultiChecker {
	clone := *m
	clone.occs = make([]thetaOccupancy, len(m.occs))
	for i, o := range m.occs {
		clone.occs[i] = thetaOccupancy{
			necessary:  o.necessary.clone(),
			sufficient: o.sufficient.clone(),
		}
	}
	clone.dirBuf = make([]float64, 0, cap(m.dirBuf))
	clone.perTheta = make([]ThetaReport, len(m.perTheta))
	clone.batch = spatial.BatchScratch{}
	return &clone
}

// Thetas returns the configured effective angles, in Evaluate order.
// The caller must not modify the returned slice.
func (m *MultiChecker) Thetas() []float64 { return m.thetas }

// Index returns the underlying spatial source.
func (m *MultiChecker) Index() spatial.Source { return m.index }

// viewedDirections fills the scratch buffer with the viewed directions
// of all cameras covering p.
func (m *MultiChecker) viewedDirections(p geom.Vec) []float64 {
	m.dirBuf = m.index.AppendViewedDirections(m.dirBuf[:0], p)
	return m.dirBuf
}

// Evaluate diagnoses point p for every configured θ. The candidate
// gather, max-gap scan, and buffer reuse make the call allocation-free
// in the steady state. The returned report's PerTheta slice is reused
// by the next call.
func (m *MultiChecker) Evaluate(p geom.Vec) MultiReport {
	return m.report(m.viewedDirections(p))
}

// report diagnoses one point from its gathered viewed directions for
// every configured θ; it is the single verdict path behind Evaluate,
// EvaluateBatch, Checker.Report and SurveyGridContext. Occupancy runs
// first because it reads the raw directions; the in-place gap
// computation afterwards normalizes and sorts dirs, and the hoisted 2θ
// thresholds turn the gap into the full-view verdicts.
//
// The report depends only on the multiset of dirs, not their order:
// occupancy fills a bitmask, and the gap is read off the sorted
// directions, where +0 and −0 (which the sort may order either way)
// give the same differences. The grid raster, which emits a point's
// directions in another order than the point gather, relies on this.
func (m *MultiChecker) report(dirs []float64) MultiReport {
	for i := range m.occs {
		m.perTheta[i] = ThetaReport{
			Theta:      m.thetas[i],
			Necessary:  m.occs[i].necessary.allOccupied(dirs),
			Sufficient: m.occs[i].sufficient.allOccupied(dirs),
		}
	}
	gap, _ := geom.MaxCircularGapInPlace(dirs)
	covered := len(dirs) > 0
	for i := range m.perTheta {
		m.perTheta[i].FullView = covered && gap <= m.twoThetas[i]
	}
	return MultiReport{
		NumCovering: len(dirs),
		MaxGap:      gap,
		PerTheta:    m.perTheta,
	}
}
