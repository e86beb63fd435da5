package viz

import (
	"encoding/xml"
	"errors"
	"math"
	"strings"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

func testNetwork(t *testing.T, n int) *sensor.Network {
	t.Helper()
	profile, err := sensor.Homogeneous(0.2, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, n, rng.New(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func render(t *testing.T, s *Scene) string {
	t.Helper()
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// assertWellFormed parses the SVG as XML; malformed markup fails.
func assertWellFormed(t *testing.T, svg string) {
	t.Helper()
	decoder := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := decoder.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSceneValidation(t *testing.T) {
	net := testNetwork(t, 10)
	if _, err := NewScene(net, 0, Options{}); err == nil {
		t.Error("theta 0 accepted")
	}
	if _, err := NewScene(net, math.Pi/4, Options{SizePx: -5}); !errors.Is(err, ErrBadSize) {
		t.Errorf("error = %v, want ErrBadSize", err)
	}
	if _, err := NewScene(net, math.Pi/4, Options{HeatmapSide: -1}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("error = %v, want ErrBadGrid", err)
	}
}

func TestRenderCamerasOnly(t *testing.T) {
	net := testNetwork(t, 25)
	s, err := NewScene(net, math.Pi/4, Options{ShowCameras: true})
	if err != nil {
		t.Fatal(err)
	}
	svg := render(t, s)
	assertWellFormed(t, svg)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Error("missing svg envelope")
	}
	// One sector path + one centre dot per camera.
	if got := strings.Count(svg, "<path"); got != 25 {
		t.Errorf("sector paths = %d, want 25", got)
	}
	if got := strings.Count(svg, "<circle"); got != 25 {
		t.Errorf("centre dots = %d, want 25", got)
	}
	if !strings.Contains(svg, `width="800"`) {
		t.Error("default size not applied")
	}
}

func TestRenderHeatmap(t *testing.T) {
	net := testNetwork(t, 200)
	s, err := NewScene(net, math.Pi/3, Options{HeatmapSide: 10, MarkHoles: true})
	if err != nil {
		t.Fatal(err)
	}
	svg := render(t, s)
	assertWellFormed(t, svg)
	// 100 heatmap cells plus the background rect.
	if got := strings.Count(svg, "<rect"); got != 101 {
		t.Errorf("rects = %d, want 101", got)
	}
}

func TestRenderEmptyNetworkAllHoles(t *testing.T) {
	net, err := sensor.NewNetwork(geom.UnitTorus, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScene(net, math.Pi/4, Options{HeatmapSide: 5, MarkHoles: true})
	if err != nil {
		t.Fatal(err)
	}
	svg := render(t, s)
	assertWellFormed(t, svg)
	// Every cell is a hole: 25 cross-out paths, all cells in warning red.
	if got := strings.Count(svg, `stroke="#d62728"`); got != 25 {
		t.Errorf("hole crosses = %d, want 25", got)
	}
	if got := strings.Count(svg, `fill="#ffd6d6"`); got != 25 {
		t.Errorf("red cells = %d, want 25", got)
	}
}

func TestBarrierOverlay(t *testing.T) {
	net := testNetwork(t, 20)
	s, err := NewScene(net, math.Pi/4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AddBarrier([]geom.Vec{geom.V(0, 0.5), geom.V(1, 0.5)})
	svg := render(t, s)
	assertWellFormed(t, svg)
	if !strings.Contains(svg, "<polyline") {
		t.Error("barrier polyline missing")
	}
	// Degenerate barrier is ignored.
	s.AddBarrier([]geom.Vec{geom.V(0, 0)})
	svg2 := render(t, s)
	if strings.Count(svg2, "<polyline") != 1 {
		t.Error("single-waypoint barrier should be ignored")
	}
}

func TestYAxisFlipped(t *testing.T) {
	// A camera near the top of the torus (y ≈ 1) must render near pixel
	// y ≈ 0.
	cams := []sensor.Camera{{
		Pos: geom.V(0.5, 0.95), Orient: 0, Radius: 0.1, Aperture: math.Pi,
	}}
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScene(net, math.Pi/4, Options{ShowCameras: true, SizePx: 100})
	if err != nil {
		t.Fatal(err)
	}
	svg := render(t, s)
	if !strings.Contains(svg, `<circle cx="50.0" cy="5.0"`) {
		t.Errorf("expected centre dot at (50, 5):\n%s", svg)
	}
}

func TestHeatColorRamp(t *testing.T) {
	if heatColor(0, 5) != "#ffd6d6" {
		t.Error("zero depth should be warning red")
	}
	if heatColor(5, 5) != "#1b5e20" {
		t.Errorf("max depth = %s, want #1b5e20", heatColor(5, 5))
	}
	mid := heatColor(2, 5)
	if mid == heatColor(0, 5) || mid == heatColor(5, 5) {
		t.Error("mid depth should interpolate")
	}
}
