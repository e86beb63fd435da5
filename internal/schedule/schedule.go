// Package schedule selects which cameras to power on: an
// over-provisioned deployment (anything comfortably above the paper's
// sufficient CSA) can full-view cover the region with a fraction of its
// cameras awake, and rotating disjoint such subsets multiplies battery
// lifetime — the full-view analogue of the k-coverage sleep scheduling
// that motivates Kumar et al. [6].
//
// Selection uses the paper's *sufficient* condition as a certificate:
// activating a set of cameras such that every θ-sector of every grid
// point contains a covering camera guarantees full-view coverage
// (Section IV). That requirement is a set-cover instance — each camera
// covers a set of (point, sector) pairs — solved greedily (ln-factor
// approximation, deterministic).
package schedule

import (
	"errors"
	"fmt"
	"math"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// Errors.
var (
	ErrBadTheta    = errors.New("schedule: effective angle θ must be in (0, π]")
	ErrBadGridSide = errors.New("schedule: grid side must be positive")
	ErrInfeasible  = errors.New("schedule: the full network does not satisfy the sufficient condition everywhere")
)

// instance is the prepared set-cover problem.
type instance struct {
	numElements int
	// coverage[i] lists the element ids camera i satisfies.
	coverage [][]int32
}

// buildInstance enumerates, for every camera, the (point, sector) pairs
// it satisfies: the camera covers the point and its viewed direction
// falls in the sector.
func buildInstance(net *sensor.Network, theta float64, gridSide int) (*instance, []geom.Vec, []geom.Sector, error) {
	if !(theta > 0) || theta > math.Pi {
		return nil, nil, nil, fmt.Errorf("%w: got %v", ErrBadTheta, theta)
	}
	if gridSide <= 0 {
		return nil, nil, nil, fmt.Errorf("%w: got %d", ErrBadGridSide, gridSide)
	}
	t := net.Torus()
	points, err := deploy.GridPoints(t, gridSide)
	if err != nil {
		return nil, nil, nil, err
	}
	sectors, err := geom.AnchoredPartition(theta)
	if err != nil {
		return nil, nil, nil, err
	}
	inst := &instance{
		numElements: len(points) * len(sectors),
		coverage:    make([][]int32, net.Len()),
	}
	for ci := 0; ci < net.Len(); ci++ {
		cam := net.Camera(ci)
		for pi, p := range points {
			if !cam.Covers(t, p) {
				continue
			}
			beta := cam.ViewedDirection(t, p)
			for si, sec := range sectors {
				if sec.Contains(beta) {
					inst.coverage[ci] = append(inst.coverage[ci], int32(pi*len(sectors)+si))
				}
			}
		}
	}
	return inst, points, sectors, nil
}

// greedyCover runs weighted-less greedy set cover over the instance,
// restricted to the cameras in allowed (nil = all). Returns the chosen
// camera indices in selection order, or ErrInfeasible when the allowed
// cameras cannot satisfy every element.
func greedyCover(inst *instance, allowed []bool) ([]int, error) {
	satisfied := make([]bool, inst.numElements)
	remaining := inst.numElements
	gains := make([]int, len(inst.coverage))
	usable := make([]bool, len(inst.coverage))
	for ci := range inst.coverage {
		usable[ci] = allowed == nil || allowed[ci]
		if usable[ci] {
			gains[ci] = len(inst.coverage[ci])
		}
	}
	var chosen []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for ci, ok := range usable {
			if !ok {
				continue
			}
			// Lazy refresh: recompute the stale optimistic gain only for
			// the current maximum candidate.
			if gains[ci] > bestGain {
				fresh := 0
				for _, e := range inst.coverage[ci] {
					if !satisfied[e] {
						fresh++
					}
				}
				gains[ci] = fresh
				if fresh > bestGain {
					best, bestGain = ci, fresh
				}
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		chosen = append(chosen, best)
		usable[best] = false
		for _, e := range inst.coverage[best] {
			if !satisfied[e] {
				satisfied[e] = true
				remaining--
			}
		}
	}
	return chosen, nil
}

// MinimalCover selects a small subset of cameras whose activation
// satisfies the sufficient condition at every point of a
// gridSide×gridSide grid — and therefore full-view covers those points.
// Greedy set cover: within a ln(elements) factor of the optimal subset.
// Returns camera indices in selection order.
func MinimalCover(net *sensor.Network, theta float64, gridSide int) ([]int, error) {
	inst, _, _, err := buildInstance(net, theta, gridSide)
	if err != nil {
		return nil, err
	}
	return greedyCover(inst, nil)
}

// Shifts partitions cameras into disjoint activation shifts, each of
// which satisfies the sufficient condition on the grid. The network can
// run one shift at a time, multiplying its lifetime by the number of
// shifts. Greedy: carve minimal covers out of the remaining cameras
// until no feasible cover is left. Returns at least zero shifts; a
// network that cannot cover even once yields ErrInfeasible.
func Shifts(net *sensor.Network, theta float64, gridSide int) ([][]int, error) {
	inst, _, _, err := buildInstance(net, theta, gridSide)
	if err != nil {
		return nil, err
	}
	allowed := make([]bool, net.Len())
	for i := range allowed {
		allowed[i] = true
	}
	var shifts [][]int
	for {
		cover, err := greedyCover(inst, allowed)
		if errors.Is(err, ErrInfeasible) {
			break
		}
		if err != nil {
			return nil, err
		}
		shifts = append(shifts, cover)
		for _, ci := range cover {
			allowed[ci] = false
		}
	}
	if len(shifts) == 0 {
		return nil, ErrInfeasible
	}
	return shifts, nil
}

// Subnetwork materializes the network consisting of the given camera
// indices.
func Subnetwork(net *sensor.Network, indices []int) (*sensor.Network, error) {
	cams := make([]sensor.Camera, 0, len(indices))
	for _, ci := range indices {
		if ci < 0 || ci >= net.Len() {
			return nil, fmt.Errorf("schedule: camera index %d out of range [0, %d)", ci, net.Len())
		}
		cams = append(cams, net.Camera(ci))
	}
	return sensor.NewNetwork(net.Torus(), cams)
}
