// Package sensor implements the paper's camera model: binary-sector
// cameras (Section II-A) and heterogeneous group profiles (Section II,
// "we partition sensors to u groups G_1 … G_u").
//
// Query points are answered at their wrapped representative: a
// Network's brute-force scans (CoveringIndices, ViewedDirections) test
// Torus.Wrap(p), as the spatial index does, so the oracle and the index
// agree on points outside [0, side) too. Wrap is the identity on
// [0, side), so in-range points are tested as given. Camera.Covers
// itself takes the point as given: near the seam an unwrapped point can
// round differently inside Torus.Delta than its wrapped form.
package sensor

import (
	"fmt"

	"fullview/internal/geom"
)

// Camera is a camera sensor under the binary sector model: it senses
// perfectly inside a sector of radius Radius and central angle Aperture
// whose bisector points along Orient, and senses nothing outside it. The
// orientation is fixed once deployed (the paper's cameras cannot steer).
type Camera struct {
	// Pos is the camera location on the operational torus.
	Pos geom.Vec
	// Orient is the orientation f⃗ — the angular bisector of the sensing
	// sector — in [0, 2π).
	Orient float64
	// Radius is the sensing radius r.
	Radius float64
	// Aperture is the angle of view φ in (0, 2π].
	Aperture float64
	// Group is the index of the heterogeneity group this camera belongs
	// to (0-based), or 0 for homogeneous networks.
	Group int
}

// SensingArea returns s = φ·r²/2, the area of the sensing sector. The
// paper's central observation (Section VI-A) is that under uniform
// deployment this single number — not r or φ individually — determines a
// camera's contribution to full-view coverage.
func (c Camera) SensingArea() float64 {
	return c.Aperture * c.Radius * c.Radius / 2
}

// Covers reports whether the camera senses point p on torus t: p must be
// within Radius of the camera and the direction camera→p must lie within
// Aperture/2 of the orientation. Boundary cases (exactly at radius or at
// the sector edge) count as covered. A point exactly at the camera
// position is covered.
func (c Camera) Covers(t geom.Torus, p geom.Vec) bool {
	d := t.Delta(c.Pos, p)
	if d.Norm2() > c.Radius*c.Radius {
		return false
	}
	if d.IsZero() {
		return true
	}
	return geom.AngularDistance(d.Angle(), c.Orient) <= c.Aperture/2
}

// ViewedDirection returns the paper's "viewed direction" of point p with
// respect to this camera: the direction of the vector P→S from the object
// to the sensor, in [0, 2π). The full-view condition compares this
// direction against the object's facing direction.
func (c Camera) ViewedDirection(t geom.Torus, p geom.Vec) float64 {
	return t.Delta(p, c.Pos).Angle()
}

// Validate reports whether the camera's parameters are admissible.
func (c Camera) Validate() error {
	if !(c.Radius > 0) {
		return fmt.Errorf("sensor: camera radius must be positive, got %v", c.Radius)
	}
	if !(c.Aperture > 0) || c.Aperture > geom.TwoPi {
		return fmt.Errorf("sensor: camera aperture must be in (0, 2π], got %v", c.Aperture)
	}
	return nil
}

// String implements fmt.Stringer.
func (c Camera) String() string {
	return fmt.Sprintf("Camera{pos=%v orient=%.4g r=%.4g φ=%.4g group=%d}",
		c.Pos, c.Orient, c.Radius, c.Aperture, c.Group)
}
