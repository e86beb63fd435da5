// Package core implements the paper's contribution: the full-view
// coverage test (Definition 1), the geometric necessary condition
// (Section III, 2θ-sectors), the geometric sufficient condition
// (Section IV, θ-sectors), classic k-coverage, and region-level coverage
// over the dense grid that stands in for the whole operational area.
package core

import (
	"errors"
	"fmt"
	"math"

	"fullview/internal/geom"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// ErrBadTheta reports an effective angle outside (0, π], or one so
// small that its θ-sector partition would exceed MaxSectors.
var ErrBadTheta = errors.New("core: effective angle θ must be in (0, π]")

// MaxSectors caps the sector count of one anchored partition. A
// checker materialises the θ-partition's ⌈2π/θ⌉ sectors up front, so an
// uncapped θ of 1e-10 asks for one 160 GB allocation. 4096 sectors
// (θ ≥ 2π/4096 ≈ 0.00049π, about 0.09°) is far below any angle a
// deployment can full-view cover yet keeps a 64-θ checker's partitions
// near 6 MB.
const MaxSectors = 4096

// CheckTheta reports whether theta is an effective angle a checker
// accepts: in (0, π] and with a θ-sector partition of at most
// MaxSectors sectors. The count is checked by arithmetic before any
// partition is allocated. The error wraps ErrBadTheta.
func CheckTheta(theta float64) error {
	if !(theta > 0) || theta > math.Pi {
		return fmt.Errorf("%w: got %v", ErrBadTheta, theta)
	}
	// 2π/θ is +Inf for a denormal θ, which the comparison refuses too.
	if sectors := 2 * math.Pi / theta; sectors > MaxSectors {
		return fmt.Errorf("%w: θ=%v needs %.3g sectors, more than the %d cap", ErrBadTheta, theta, sectors, MaxSectors)
	}
	return nil
}

// Checker evaluates coverage predicates for one deployed network and one
// effective angle θ. It is a one-θ MultiChecker: every verdict comes from
// the same evaluator. It reuses internal buffers across calls, so a
// Checker must not be used from multiple goroutines concurrently; use
// Clone to derive one per worker instead (cloning shares the immutable
// spatial index and sector partitions and allocates only scratch).
type Checker struct {
	m *MultiChecker
}

// NewChecker builds a Checker for the network with effective angle
// theta ∈ (0, π].
func NewChecker(net *sensor.Network, theta float64) (*Checker, error) {
	return NewCheckerFromSource(spatial.NewIndex(net), theta)
}

// NewCheckerFromIndex builds a Checker sharing an existing immutable
// spatial index. Use this to amortise index construction across several
// checkers (e.g. different θ on the same deployment).
func NewCheckerFromIndex(ix *spatial.Index, theta float64) (*Checker, error) {
	return NewCheckerFromSource(ix, theta)
}

// NewCheckerFromSource builds a Checker over any spatial.Source — an
// immutable Index or a View pinned from a MutableIndex by Snapshot.
// Every verdict of the Checker reflects the one deployment version the
// source holds.
func NewCheckerFromSource(src spatial.Source, theta float64) (*Checker, error) {
	m, err := NewMultiCheckerFromSource(src, []float64{theta})
	if err != nil {
		return nil, err
	}
	return &Checker{m: m}, nil
}

// Clone returns an independent Checker over the same network and
// effective angle: the immutable spatial index and sector partitions
// are shared, the mutable scratch buffers are private. Use it to give
// every goroutine of a parallel sweep its own Checker.
func (c *Checker) Clone() *Checker { return &Checker{m: c.m.Clone()} }

// Theta returns the effective angle θ.
func (c *Checker) Theta() float64 { return c.m.thetas[0] }

// Index returns the underlying spatial source.
func (c *Checker) Index() spatial.Source { return c.m.index }

// FullViewCovered reports whether point p is full-view covered
// (Definition 1): for every facing direction d⃗ there is a covering
// camera S with ∠(d⃗, PS) ≤ θ. Equivalently, the maximum circular gap
// between the viewed directions of the covering cameras is at most 2θ.
func (c *Checker) FullViewCovered(p geom.Vec) bool {
	dirs := c.m.viewedDirections(p)
	if len(dirs) == 0 {
		return false
	}
	gap, _ := geom.MaxCircularGapInPlace(dirs)
	return gap <= c.m.twoThetas[0]
}

// UnsafeDirection returns a facing direction witnessing that p is not
// full-view covered (the bisector of the widest viewed-direction gap),
// or ok == false when p is full-view covered.
func (c *Checker) UnsafeDirection(p geom.Vec) (dir float64, ok bool) {
	dirs := c.m.viewedDirections(p)
	gap, bisector := geom.MaxCircularGapInPlace(dirs)
	if len(dirs) > 0 && gap <= c.m.twoThetas[0] {
		return 0, false
	}
	return bisector, true
}

// MeetsNecessary reports whether p satisfies the paper's geometric
// necessary condition for full-view coverage: every sector of the
// anchored 2θ partition (including the re-centred remainder sector)
// contains the viewed direction of at least one covering camera.
func (c *Checker) MeetsNecessary(p geom.Vec) bool {
	return c.m.occs[0].necessary.allOccupied(c.m.viewedDirections(p))
}

// MeetsSufficient reports whether p satisfies the paper's geometric
// sufficient condition: every sector of the anchored θ partition
// contains the viewed direction of at least one covering camera. When it
// holds, p is guaranteed full-view covered.
func (c *Checker) MeetsSufficient(p geom.Vec) bool {
	return c.m.occs[0].sufficient.allOccupied(c.m.viewedDirections(p))
}

// CoverageCount returns the number of cameras covering p (its
// k-coverage multiplicity).
func (c *Checker) CoverageCount(p geom.Vec) int {
	return c.m.index.CountCovering(p)
}

// KCovered reports whether at least k cameras cover p. KCovered(p, 1) is
// traditional 1-coverage.
func (c *Checker) KCovered(p geom.Vec, k int) bool {
	if k <= 0 {
		return true
	}
	return c.m.index.CountCovering(p) >= k
}
