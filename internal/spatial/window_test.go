package spatial

// Tests of the tier scan window: cellsPerSide sizes cells just over half
// the tier's largest radius and span keeps reach 2, so a covering camera
// may sit two cells from the query point's cell but never three. These
// tests put cameras and query points on the exact edges where that bound
// is tightest and compare every gather with the brute-force oracle.

import (
	"math"
	"slices"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// ulps steps x by k units in the last place (negative k steps down).
func ulps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestCellEdgeWindow builds single-tier networks whose radius sits a few
// ulps either side of side/k and 2·side/k — where cellsPerSide's
// rounding flips between two grid sizes — with 3000 filler cameras so
// the tier takes the window path, not the whole-tier scan. Omnidirectional
// cameras are placed on cell edges (±1 ulp, including the seam) and
// queried at exactly r and r − 1 ulp along both axes. CountCovering,
// AppendViewedDirections and the batch rows must equal brute force.
func TestCellEdgeWindow(t *testing.T) {
	const fillers = 3000
	var sc BatchScratch
	for _, side := range []float64{1, 0.37, 10} {
		torus, err := geom.NewTorus(side)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []float64{7, 12} {
			for _, base := range []float64{side / k, 2 * side / k} {
				for _, off := range []int{-2, -1, 0, 1, 2} {
					r := ulps(base, off)
					checkCellEdges(t, &sc, torus, r, fillers)
				}
			}
		}
	}
}

func checkCellEdges(t *testing.T, sc *BatchScratch, torus geom.Torus, r float64, fillers int) {
	t.Helper()
	side := torus.Side()
	src := rng.New(uint64(math.Float64bits(r)), 0)
	cams := make([]sensor.Camera, 0, fillers+16)
	for i := 0; i < fillers; i++ {
		cams = append(cams, sensor.Camera{
			Pos:      geom.V(src.Float64()*side, src.Float64()*side),
			Orient:   src.Float64() * geom.TwoPi,
			Radius:   r,
			Aperture: (0.1 + src.Float64()) * math.Pi,
		})
	}
	// The grid the tier will get, so edge cameras land on its edges.
	cells := cellsPerSide(side, r, fillers+16)
	cellSize := side / float64(cells)
	var edges []float64
	for _, j := range []int{0, 1, cells / 2, cells - 1} {
		e := float64(j) * cellSize
		edges = append(edges, ulps(e, -1), e, ulps(e, 1))
	}
	for i := 0; len(cams) < fillers+16; i++ {
		cams = append(cams, sensor.Camera{
			Pos:      geom.V(edges[i%len(edges)], edges[(i*5+3)%len(edges)]),
			Radius:   r,
			Aperture: geom.TwoPi,
		})
	}
	net, err := sensor.NewNetwork(torus, cams)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	if len(ix.tiers) != 1 || ix.tiers[0].all || ix.tiers[0].cells != cells {
		t.Fatalf("side %v r %v: want one windowed tier of %d cells, got %+v", side, r, cells, ix.tiers[0])
	}

	var points []geom.Vec
	for _, c := range net.Cameras()[fillers:] {
		for _, d := range []float64{r, ulps(r, -1)} {
			for _, v := range []geom.Vec{{X: d}, {X: -d}, {Y: d}, {Y: -d}} {
				points = append(points, torus.Wrap(c.Pos.Add(v)))
			}
		}
	}
	dirs, offs := ix.AppendViewedDirectionsBatch(sc, points)
	var got []float64
	for i, p := range points {
		want := net.CoveringIndices(p)
		if n := ix.CountCovering(p); n != len(want) {
			t.Fatalf("side %v r %v p=%v: CountCovering = %d, brute force %d", side, r, p, n, len(want))
		}
		got = ix.AppendViewedDirections(got[:0], p)
		if row := dirs[offs[i]:offs[i+1]]; !slices.Equal(row, got) {
			t.Fatalf("side %v r %v p=%v: batch row %v, point gather %v", side, r, p, row, got)
		}
		// ViewedDirections' scan, reusing the covering set already found.
		wantDirs := make([]float64, len(want))
		for j, c := range want {
			wantDirs[j] = net.Camera(c).ViewedDirection(torus, p)
		}
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		slices.Sort(wantDirs)
		if !slices.Equal(sorted, wantDirs) {
			t.Fatalf("side %v r %v p=%v: directions %v, brute force %v", side, r, p, sorted, wantDirs)
		}
	}
}

// TestD2000CandidateWindow pins the scan window on the service
// benchmark's D2000 recipe: no tier falls back to the whole-tier scan,
// and the point walk visits fewer than 300 candidates per point (radius-
// sized cells visited about 800).
func TestD2000CandidateWindow(t *testing.T) {
	profile, err := sensor.ParseProfile("0.5:0.06:0.5,0.3:0.1:0.33,0.2:0.2:0.25")
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 2000, rng.New(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(net)
	for ti := range ix.tiers {
		if tr := &ix.tiers[ti]; tr.all || tr.reach != 2 {
			t.Errorf("tier %d (maxR %v, %d cells): reach %d, whole-tier %v; want reach 2 windowed",
				ti, tr.maxR, tr.cells, tr.reach, tr.all)
		}
	}
	const points = 4000
	src := rng.New(2, 0)
	visited := 0
	for i := 0; i < points; i++ {
		p := geom.V(src.Float64(), src.Float64())
		for ti := range ix.tiers {
			tr := &ix.tiers[ti]
			pcx, pcy, reach, all := tr.span(p.X, p.Y)
			if all {
				visited += len(tr.camIdx)
				continue
			}
			for dy := -reach; dy <= reach; dy++ {
				row := wrapCell(pcy+dy, tr.cells) * tr.cells
				for dx := -reach; dx <= reach; dx++ {
					b := row + wrapCell(pcx+dx, tr.cells)
					visited += int(tr.starts[b+1] - tr.starts[b])
				}
			}
		}
	}
	if perPoint := float64(visited) / points; perPoint >= 300 {
		t.Errorf("point walk visits %.1f candidates per point, want < 300", perPoint)
	} else {
		t.Logf("point walk visits %.1f candidates per point", perPoint)
	}
}
