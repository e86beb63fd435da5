package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonPositiveSide reports an attempt to construct a torus with a
// non-positive side length.
var ErrNonPositiveSide = errors.New("geom: torus side must be positive")

// Torus is a flat square torus of the given side length. The paper's
// operational region is the unit square "supposed to be a torus so that we
// can ignore the boundary effect"; all deployment and coverage code works
// through this type so the wrap-around metric is applied consistently.
//
// The zero value is not useful; construct with NewTorus or use UnitTorus.
type Torus struct {
	side float64
}

// UnitTorus is the paper's unit-square operational region.
var UnitTorus = Torus{side: 1}

// NewTorus returns a flat square torus with the given side length.
func NewTorus(side float64) (Torus, error) {
	if !(side > 0) || math.IsInf(side, 0) {
		return Torus{}, fmt.Errorf("%w: got %v", ErrNonPositiveSide, side)
	}
	return Torus{side: side}, nil
}

// Side returns the side length of the torus.
func (t Torus) Side() float64 { return t.side }

// GridCoord returns coordinate i of the k×k cell-centre grid,
// (i+½)·side/k. Grid point (i, j) of deploy.GridPoints is
// (GridCoord(k, i), GridCoord(k, j)), and the spatial grid gather
// rebuilds the same points from it, so the two agree bit for bit. For
// 0 ≤ i < k the coordinate lies in [0, side), where Wrap is the
// identity.
func (t Torus) GridCoord(k, i int) float64 {
	return (float64(i) + 0.5) * (t.side / float64(k))
}

// Area returns the total area of the torus.
func (t Torus) Area() float64 { return t.side * t.side }

// Wrap maps an arbitrary point to its canonical representative in
// [0, side) × [0, side).
func (t Torus) Wrap(p Vec) Vec {
	return Vec{X: t.wrapCoord(p.X), Y: t.wrapCoord(p.Y)}
}

func (t Torus) wrapCoord(x float64) float64 {
	x = math.Mod(x, t.side)
	if x < 0 {
		x += t.side
	}
	if x >= t.side {
		x -= t.side
	}
	return x
}

// Delta returns the shortest displacement vector taking from to to on the
// torus. Each component lies in [-side/2, side/2).
func (t Torus) Delta(from, to Vec) Vec {
	return Vec{
		X: t.deltaCoord(from.X, to.X),
		Y: t.deltaCoord(from.Y, to.Y),
	}
}

func (t Torus) deltaCoord(a, b float64) float64 {
	d := math.Mod(b-a, t.side)
	half := t.side / 2
	if d < -half {
		d += t.side
	} else if d >= half {
		d -= t.side
	}
	return d
}

// Dist returns the toroidal (wrap-around) Euclidean distance between a
// and b.
func (t Torus) Dist(a, b Vec) float64 {
	return t.Delta(a, b).Norm()
}

// Dist2 returns the squared toroidal distance between a and b.
func (t Torus) Dist2(a, b Vec) float64 {
	return t.Delta(a, b).Norm2()
}

// Translate returns p displaced by d, wrapped back onto the torus.
func (t Torus) Translate(p, d Vec) Vec {
	return t.Wrap(p.Add(d))
}

// MaxDist returns the largest possible toroidal distance between two
// points, side·√2/2.
func (t Torus) MaxDist() float64 {
	return t.side * math.Sqrt2 / 2
}
