// Package track simulates moving targets through a camera network and
// measures *frontal capture*: the paper's motivation is that a
// recognition system needs an image taken within θ of the object's
// facing direction, and a moving object faces its direction of travel.
// Full-view coverage guarantees capture everywhere; this package
// measures what actually happens along concrete trajectories, including
// where coverage falls short.
package track

import (
	"errors"
	"fmt"
	"math"

	"fullview/internal/core"
	"fullview/internal/geom"
)

// Validation errors.
var (
	ErrTooFewWaypoints = errors.New("track: trajectory needs at least two waypoints")
	ErrBadStep         = errors.New("track: sample step must be positive")
	ErrZeroLength      = errors.New("track: trajectory has zero length")
)

// Trajectory is a polyline path through the region. The target moves
// along it facing its direction of travel; waypoints are planar (the
// path itself does not wrap) while sampled positions are evaluated on
// the torus.
type Trajectory struct {
	waypoints []geom.Vec
}

// NewTrajectory builds a trajectory from at least two waypoints.
func NewTrajectory(waypoints ...geom.Vec) (Trajectory, error) {
	if len(waypoints) < 2 {
		return Trajectory{}, fmt.Errorf("%w: got %d", ErrTooFewWaypoints, len(waypoints))
	}
	length := 0.0
	for i := 1; i < len(waypoints); i++ {
		length += waypoints[i].Sub(waypoints[i-1]).Norm()
	}
	if length == 0 {
		return Trajectory{}, ErrZeroLength
	}
	pts := make([]geom.Vec, len(waypoints))
	copy(pts, waypoints)
	return Trajectory{waypoints: pts}, nil
}

// Length returns the total path length.
func (tr Trajectory) Length() float64 {
	length := 0.0
	for i := 1; i < len(tr.waypoints); i++ {
		length += tr.waypoints[i].Sub(tr.waypoints[i-1]).Norm()
	}
	return length
}

// Sample is one moment of the target's motion.
type Sample struct {
	// Pos is the target position.
	Pos geom.Vec
	// Facing is the direction of travel (the facing direction d⃗).
	Facing float64
	// Dist is the arc-length from the start of the trajectory.
	Dist float64
}

// Samples walks the trajectory at arc-length intervals of at most step,
// including segment endpoints. Zero-length segments are skipped.
func (tr Trajectory) Samples(step float64) ([]Sample, error) {
	if !(step > 0) {
		return nil, fmt.Errorf("%w: got %v", ErrBadStep, step)
	}
	var out []Sample
	travelled := 0.0
	for i := 1; i < len(tr.waypoints); i++ {
		a, b := tr.waypoints[i-1], tr.waypoints[i]
		seg := b.Sub(a)
		segLen := seg.Norm()
		if segLen == 0 {
			continue
		}
		facing := seg.Angle()
		steps := int(math.Ceil(segLen / step))
		from := 0
		if len(out) > 0 {
			from = 1 // avoid duplicating the shared waypoint
		}
		for s := from; s <= steps; s++ {
			frac := float64(s) / float64(steps)
			out = append(out, Sample{
				Pos:    a.Add(seg.Scale(frac)),
				Facing: facing,
				Dist:   travelled + frac*segLen,
			})
		}
		travelled += segLen
	}
	return out, nil
}

// Capture is the capture verdict at one sample.
type Capture struct {
	Sample
	// Captured reports whether some camera covers the target from
	// within θ of its facing direction — a recognisable frontal shot.
	Captured bool
	// BestAngle is the smallest angle between the facing direction and
	// any covering camera's viewed direction (π when nothing covers the
	// target).
	BestAngle float64
}

// Report summarizes a tracking run.
type Report struct {
	// Captures holds the per-sample verdicts in path order.
	Captures []Capture
	// CapturedFraction is the fraction of samples with a frontal shot.
	CapturedFraction float64
	// LongestGap is the longest arc-length stretch with no frontal
	// capture.
	LongestGap float64
}

// Run walks the trajectory through the checker's network and reports
// where the target's face was captured. The checker's θ defines
// "frontal enough".
func Run(checker *core.Checker, tr Trajectory, step float64) (Report, error) {
	samples, err := tr.Samples(step)
	if err != nil {
		return Report{}, err
	}
	report := Report{Captures: make([]Capture, 0, len(samples))}
	captured := 0

	gapStart := -1.0
	flushGap := func(end float64) {
		if gapStart >= 0 {
			if g := end - gapStart; g > report.LongestGap {
				report.LongestGap = g
			}
			gapStart = -1
		}
	}
	var dirs []float64
	for _, s := range samples {
		dirs = checker.Index().AppendViewedDirections(dirs[:0], s.Pos)
		best := math.Pi
		for _, dir := range dirs {
			if d := geom.AngularDistance(dir, s.Facing); d < best {
				best = d
			}
		}
		c := Capture{
			Sample:    s,
			Captured:  best <= checker.Theta(),
			BestAngle: best,
		}
		if c.Captured {
			captured++
			flushGap(s.Dist)
		} else if gapStart < 0 {
			gapStart = s.Dist
		}
		report.Captures = append(report.Captures, c)
	}
	flushGap(tr.Length())
	if len(samples) > 0 {
		report.CapturedFraction = float64(captured) / float64(len(samples))
	}
	return report, nil
}
