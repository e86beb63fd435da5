package sensor

import (
	"fmt"

	"fullview/internal/geom"
)

// Network is a deployed camera sensor network: a set of cameras on an
// operational torus. Networks are immutable after construction; the
// deployment package builds them.
type Network struct {
	torus   geom.Torus
	cameras []Camera
}

// NewNetwork validates the cameras and assembles a network on the given
// torus. The camera slice is copied.
func NewNetwork(t geom.Torus, cameras []Camera) (*Network, error) {
	out := make([]Camera, len(cameras))
	for i, c := range cameras {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("camera %d: %w", i, err)
		}
		c.Pos = t.Wrap(c.Pos)
		c.Orient = geom.NormalizeAngle(c.Orient)
		out[i] = c
	}
	return &Network{torus: t, cameras: out}, nil
}

// Torus returns the operational region.
func (n *Network) Torus() geom.Torus { return n.torus }

// Len returns the number of cameras.
func (n *Network) Len() int { return len(n.cameras) }

// Camera returns the i-th camera.
func (n *Network) Camera(i int) Camera { return n.cameras[i] }

// Cameras returns a copy of the camera slice.
func (n *Network) Cameras() []Camera {
	out := make([]Camera, len(n.cameras))
	copy(out, n.cameras)
	return out
}

// MaxRadius returns the largest sensing radius in the network, or 0 for
// an empty network.
func (n *Network) MaxRadius() float64 {
	r := 0.0
	for _, c := range n.cameras {
		if c.Radius > r {
			r = c.Radius
		}
	}
	return r
}

// TotalSensingArea returns Σ_i s_i over all deployed cameras.
func (n *Network) TotalSensingArea() float64 {
	s := 0.0
	for _, c := range n.cameras {
		s += c.SensingArea()
	}
	return s
}

// MeanSensingArea returns the average sensing area per camera, the
// finite-n analogue of the paper's weighted sum s_c = Σ c_y s_y. Returns
// 0 for an empty network.
func (n *Network) MeanSensingArea() float64 {
	if len(n.cameras) == 0 {
		return 0
	}
	return n.TotalSensingArea() / float64(len(n.cameras))
}

// GroupCounts tallies cameras per group index. The returned slice has
// length max(group)+1; an empty network yields nil.
func (n *Network) GroupCounts() []int {
	maxGroup := -1
	for _, c := range n.cameras {
		if c.Group > maxGroup {
			maxGroup = c.Group
		}
	}
	if maxGroup < 0 {
		return nil
	}
	counts := make([]int, maxGroup+1)
	for _, c := range n.cameras {
		counts[c.Group]++
	}
	return counts
}

// CoveringIndices returns the indices of all cameras that cover point p,
// by brute-force scan. The spatial package provides an indexed
// equivalent for hot paths; this form is the correctness oracle. Like
// the index, it tests the wrapped point (see the package doc).
func (n *Network) CoveringIndices(p geom.Vec) []int {
	p = n.torus.Wrap(p)
	var out []int
	for i, c := range n.cameras {
		if c.Covers(n.torus, p) {
			out = append(out, i)
		}
	}
	return out
}

// ViewedDirections returns the viewed directions (angles of P→S) of all
// cameras covering the wrapped point p, by brute-force scan.
func (n *Network) ViewedDirections(p geom.Vec) []float64 {
	p = n.torus.Wrap(p)
	var out []float64
	for _, c := range n.cameras {
		if c.Covers(n.torus, p) {
			out = append(out, c.ViewedDirection(n.torus, p))
		}
	}
	return out
}
