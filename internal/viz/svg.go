// Package viz renders deployments and coverage as standalone SVG:
// camera sectors, a full-view multiplicity heatmap, coverage holes, and
// barrier polylines. Pure string generation over the stdlib — the
// output opens in any browser, which is the fastest way to understand
// why a particular deployment leaves the holes it does.
package viz

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// Rendering errors.
var (
	ErrBadSize = errors.New("viz: canvas size must be positive")
	ErrBadGrid = errors.New("viz: heatmap grid side must be positive")
)

// Options controls a scene render.
type Options struct {
	// SizePx is the canvas edge in pixels (default 800).
	SizePx int
	// HeatmapSide draws a full-view multiplicity heatmap on a
	// HeatmapSide×HeatmapSide grid when positive.
	HeatmapSide int
	// ShowCameras draws the camera sensing sectors.
	ShowCameras bool
	// MarkHoles crosses out heatmap cells with multiplicity zero.
	MarkHoles bool
}

func (o Options) withDefaults() Options {
	if o.SizePx == 0 {
		o.SizePx = 800
	}
	return o
}

func (o Options) validate() error {
	if o.SizePx <= 0 {
		return fmt.Errorf("%w: got %d", ErrBadSize, o.SizePx)
	}
	if o.HeatmapSide < 0 {
		return fmt.Errorf("%w: got %d", ErrBadGrid, o.HeatmapSide)
	}
	return nil
}

// Scene accumulates SVG fragments for one network.
type Scene struct {
	net     *sensor.Network
	checker *core.Checker
	opts    Options
	extra   []string
}

// NewScene prepares a render of the network with the given effective
// angle (used for the heatmap's multiplicity sweep).
func NewScene(net *sensor.Network, theta float64, opts Options) (*Scene, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	checker, err := core.NewChecker(net, theta)
	if err != nil {
		return nil, err
	}
	return &Scene{net: net, checker: checker, opts: opts}, nil
}

// AddBarrier overlays a barrier polyline.
func (s *Scene) AddBarrier(waypoints []geom.Vec) {
	if len(waypoints) < 2 {
		return
	}
	var points []string
	for _, wp := range waypoints {
		x, y := s.toPx(wp)
		points = append(points, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	s.extra = append(s.extra, fmt.Sprintf(
		`<polyline points="%s" fill="none" stroke="#d62728" stroke-width="3" stroke-dasharray="8 4"/>`,
		strings.Join(points, " ")))
}

// toPx maps torus coordinates to pixels (y flipped so north is up).
func (s *Scene) toPx(p geom.Vec) (x, y float64) {
	side := s.net.Torus().Side()
	wrapped := s.net.Torus().Wrap(p)
	scale := float64(s.opts.SizePx) / side
	return wrapped.X * scale, (side - wrapped.Y) * scale
}

// WriteTo renders the scene as a complete SVG document.
func (s *Scene) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	size := s.opts.SizePx
	fmt.Fprintf(&b,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		size, size, size, size)
	b.WriteString(`<rect width="100%" height="100%" fill="#fafafa"/>` + "\n")

	if s.opts.HeatmapSide > 0 {
		if err := s.writeHeatmap(&b); err != nil {
			return 0, err
		}
	}
	if s.opts.ShowCameras {
		s.writeCameras(&b)
	}
	for _, fragment := range s.extra {
		b.WriteString(fragment)
		b.WriteByte('\n')
	}
	b.WriteString("</svg>\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHeatmap colors each grid cell by full-view multiplicity.
func (s *Scene) writeHeatmap(b *strings.Builder) error {
	side := s.opts.HeatmapSide
	points, err := deploy.GridPoints(s.net.Torus(), side)
	if err != nil {
		return err
	}
	depths := make([]int, len(points))
	maxDepth := 1
	for i, p := range points {
		depths[i], _ = s.checker.FullViewMultiplicity(p)
		if depths[i] > maxDepth {
			maxDepth = depths[i]
		}
	}
	cell := float64(s.opts.SizePx) / float64(side)
	for i, p := range points {
		x, y := s.toPx(p)
		fmt.Fprintf(b,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
			x-cell/2, y-cell/2, cell, cell, heatColor(depths[i], maxDepth))
		if s.opts.MarkHoles && depths[i] == 0 {
			fmt.Fprintf(b,
				`<path d="M %.1f %.1f L %.1f %.1f M %.1f %.1f L %.1f %.1f" stroke="#d62728" stroke-width="1.5"/>`+"\n",
				x-cell/2, y-cell/2, x+cell/2, y+cell/2,
				x+cell/2, y-cell/2, x-cell/2, y+cell/2)
		}
	}
	return nil
}

// writeCameras draws each camera's sensing sector and orientation.
func (s *Scene) writeCameras(b *strings.Builder) {
	scale := float64(s.opts.SizePx) / s.net.Torus().Side()
	for i := 0; i < s.net.Len(); i++ {
		cam := s.net.Camera(i)
		cx, cy := s.toPx(cam.Pos)
		r := cam.Radius * scale
		// Sector outline: arc from orient−φ/2 to orient+φ/2 (y flipped,
		// so angles negate).
		a0 := -(cam.Orient - cam.Aperture/2)
		a1 := -(cam.Orient + cam.Aperture/2)
		x0, y0 := cx+r*math.Cos(a0), cy+r*math.Sin(a0)
		x1, y1 := cx+r*math.Cos(a1), cy+r*math.Sin(a1)
		large := 0
		if cam.Aperture > math.Pi {
			large = 1
		}
		fmt.Fprintf(b,
			`<path d="M %.1f %.1f L %.1f %.1f A %.1f %.1f 0 %d 0 %.1f %.1f Z" fill="#1f77b4" fill-opacity="0.08" stroke="#1f77b4" stroke-opacity="0.35" stroke-width="0.6"/>`+"\n",
			cx, cy, x0, y0, r, r, large, x1, y1)
		fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2" fill="#1f77b4"/>`+"\n", cx, cy)
	}
}

// heatColor maps multiplicity to a white→green ramp, with depth 0 in
// warning red.
func heatColor(depth, maxDepth int) string {
	if depth == 0 {
		return "#ffd6d6"
	}
	f := float64(depth) / float64(maxDepth)
	if f > 1 {
		f = 1
	}
	// Interpolate #e8f5e9 → #1b5e20.
	lerp := func(a, b int) int { return a + int(f*float64(b-a)) }
	return fmt.Sprintf("#%02x%02x%02x", lerp(0xe8, 0x1b), lerp(0xf5, 0x5e), lerp(0xe9, 0x20))
}
