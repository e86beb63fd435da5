// Grid gather: the camera-major row raster behind every dense-grid
// survey.
//
// The paper's area test evaluates a k×k grid of cell centres (Section
// V), and grid point (i, j) is (c(i), c(j)) with c = geom.Torus.
// GridCoord, so grid row i is the vertical line x = c(i). For one camera
// and one such line, the points its sector can cover form at most two
// intervals of the line: the disc's chord, cut by the wedge's two edge
// half-planes. AppendGridDirections walks a block of rows camera-major
// — the camera × demand-point coverage matrix, one camera at a time —
// computes those intervals for each row the camera's disc reaches, and
// runs the unchanged covers test only on the points inside them. A
// block's candidates come from each tier's bucket columns that reach
// the block's x-strip; no tier scans all of its cameras unless the
// strip spans every column.
//
// The intervals are exact supersets. The wedge is widened by
// rasterAngleSlack, which dwarfs the few-ulp angular error of both the
// edge vectors and covers' accept test, and the chord by chordSlack,
// which covers the rounding of the radius test near the tangent; each
// interval is then widened by prefilterSlack·side and one grid step,
// split at the seam and clamped to one pass over the row, so no point
// is tested twice. Every covering camera of every point therefore
// reaches covers, and each emitted direction is viewedDirection's —
// the same arithmetic as the point gather. A View skips removed slots
// and rasters its added cameras last with the exact sensor predicates.
//
// The hits are placed per point by a counting sort. A point's slice
// holds the same directions as AppendViewedDirections(nil, p), bit for
// bit, in tier → slot → added order rather than the point gather's
// window order; every consumer of the slices (core's report) is
// order-independent.
//
// AppendViewedDirectionsBatch answers an arbitrary point batch as a loop
// over the point gather, in the point gather's order.
package spatial

import (
	"math"

	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// prefilterSlack is the absolute slack, as a fraction of the torus
// side, that Index.window and the grid raster widen their geometric
// bounds by before they may reject a candidate. The bounds are
// assembled from a handful of additions and one halving or square
// root, each exact to ~1 ulp (≈2e-16 relative), so a 1e-12·side margin
// exceeds the accumulated error by almost four orders of magnitude
// while staying far below any sensing radius the index would ever
// bucket.
const prefilterSlack = 1e-12

// rasterAngleSlack (radians) widens each camera's wedge before the grid
// raster turns it into row intervals. The edge vectors and the interval
// bounds carry a few ulps of angular error, and covers accepts points
// up to a few ulps past the exact aperture; 1e-9 rad exceeds both by
// six orders of magnitude.
const rasterAngleSlack = 1e-9

// chordSlack is the grid raster's relative widening of a disc chord.
// covers accepts dy when dx² + dy² rounds to at most r², which admits
// |dy| up to about √(2u)·r ≈ 1.5e-8·r past the true chord at a tangent
// row (u the unit roundoff).
const chordSlack = 1e-7

// BatchScratch owns every buffer the grid gather and the batch loop
// need. The zero value is ready to use; buffers grow on first use and
// are reused by later calls, so a caller that keeps one scratch per
// worker pays zero allocations per point in the steady state. A
// BatchScratch must not be shared between goroutines.
type BatchScratch struct {
	coords []float64 // grid coordinates c(0), …, c(k−1)
	hitPt  []int32   // emission-ordered covering hits: block point index
	hitDir []float64 // and the hit's viewed direction
	offs   []int32   // CSR offsets over the points (len = points+1)
	cursor []int32   // per-point hit counts, then placement cursors
	dirs   []float64 // result storage
}

// growI32 returns a length-n slice, reusing s's storage when it is
// large enough.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// AppendViewedDirectionsBatch computes the viewed directions of the
// cameras covering every point in the batch, one point gather after
// another. The result is CSR over the batch: dirs[offs[i]:offs[i+1]]
// equals AppendViewedDirections(nil, points[i]) element for element.
// Both returned slices are owned by sc and are valid until its next
// call.
func (ix *Index) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) (dirs []float64, offs []int32) {
	return ix.appendViewedDirectionsBatch(sc, points, nil)
}

// AppendViewedDirectionsBatch is Index.AppendViewedDirectionsBatch over
// the pinned snapshot.
func (v *View) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) ([]float64, []int32) {
	return v.s.base.appendViewedDirectionsBatch(sc, points, v.s.delta)
}

func (ix *Index) appendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec, d *overlay) ([]float64, []int32) {
	sc.offs = growI32(sc.offs, len(points)+1)
	dirs := sc.dirs[:0]
	for i, p := range points {
		sc.offs[i] = int32(len(dirs))
		dirs = ix.appendViewedDirections(dirs, p, d)
	}
	sc.offs[len(points)] = int32(len(dirs))
	sc.dirs = dirs
	return dirs, sc.offs
}

// AppendGridDirections computes the viewed directions of the cameras
// covering every point of rows [rowLo, rowHi) of the k×k grid of
// deploy.GridPoints through the camera-major row raster. The result is
// CSR over the block's points in grid order: point (i, j) is
// (i−rowLo)·k + j, and its slice holds the same directions as
// AppendViewedDirections(nil, (c(i), c(j))), bit for bit, in tier →
// slot order. Both returned slices are owned by sc and are valid until
// its next call. It panics unless k ≥ 1 and 0 ≤ rowLo ≤ rowHi ≤ k.
func (ix *Index) AppendGridDirections(sc *BatchScratch, k, rowLo, rowHi int) (dirs []float64, offs []int32) {
	return ix.appendGridDirections(sc, k, rowLo, rowHi, nil)
}

// AppendGridDirections is Index.AppendGridDirections over the pinned
// snapshot: removed cameras are skipped and added ones come last, in
// added order.
func (v *View) AppendGridDirections(sc *BatchScratch, k, rowLo, rowHi int) ([]float64, []int32) {
	return v.s.base.appendGridDirections(sc, k, rowLo, rowHi, v.s.delta)
}

// gridBlock is the geometry of one raster call: rows [rowLo, rowHi) of
// the k×k grid whose coordinates are coords.
type gridBlock struct {
	k, rowLo, rowHi int
	side, step      float64
	coords          []float64
}

func (ix *Index) appendGridDirections(sc *BatchScratch, k, rowLo, rowHi int, d *overlay) ([]float64, []int32) {
	if k < 1 || rowLo < 0 || rowLo > rowHi || rowHi > k {
		panic("spatial: grid rows out of range")
	}
	sc.coords = growF64(sc.coords, k)
	for j := range sc.coords {
		sc.coords[j] = ix.torus.GridCoord(k, j)
	}
	g := gridBlock{k: k, rowLo: rowLo, rowHi: rowHi, side: ix.side, step: ix.side / float64(k), coords: sc.coords}
	sc.hitPt = sc.hitPt[:0]
	sc.hitDir = sc.hitDir[:0]
	if rowLo < rowHi {
		slack := 2 * prefilterSlack * ix.side
		xLo, xHi := g.coords[rowLo], g.coords[rowHi-1]
		for ti := range ix.tiers {
			t := &ix.tiers[ti]
			r := t.maxR + slack
			c0 := math.Floor((xLo - r) / t.cellSize)
			c1 := math.Floor((xHi + r) / t.cellSize)
			if t.all || !(c1-c0+1 < float64(t.cells)) {
				ix.rasterSlots(sc, &g, d, t.lo, t.hi)
				continue
			}
			lo, hi, cells := int(c0), int(c1), t.cells
			for cy := 0; cy < cells; cy++ {
				row := t.starts[cy*cells:]
				switch {
				case lo < 0:
					ix.rasterSlots(sc, &g, d, row[lo+cells], row[cells])
					ix.rasterSlots(sc, &g, d, row[0], row[hi+1])
				case hi >= cells:
					ix.rasterSlots(sc, &g, d, row[lo], row[cells])
					ix.rasterSlots(sc, &g, d, row[0], row[hi-cells+1])
				default:
					ix.rasterSlots(sc, &g, d, row[lo], row[hi+1])
				}
			}
		}
		if d != nil {
			for a := range d.added {
				ix.rasterCamera(sc, &g, 0, &d.added[a])
			}
		}
	}
	return sc.placeHits((rowHi - rowLo) * k)
}

// rasterSlots rasters the base cameras in slots [lo, hi) over the
// block, skipping the overlay's removed ones.
func (ix *Index) rasterSlots(sc *BatchScratch, g *gridBlock, d *overlay, lo, hi int32) {
	for s := lo; s < hi; s++ {
		if d == nil || !d.isRemoved(ix.camIdx[s]) {
			ix.rasterCamera(sc, g, s, nil)
		}
	}
}

// rasterCamera rasters one camera over the block and emits its hits:
// the base camera in slot s through covers and viewedDirection, or,
// when c is non-nil, the overlay-added camera c through the exact
// sensor predicates, which covers is bit-identical to.
func (ix *Index) rasterCamera(sc *BatchScratch, g *gridBlock, s int32, c *sensor.Camera) {
	var px, py, r2, orient, half float64
	if c == nil {
		px, py, r2, orient, half = ix.posX[s], ix.posY[s], ix.radius2[s], ix.orient[s], ix.halfAper[s]
	} else {
		px, py, r2, orient, half = c.Pos.X, c.Pos.Y, c.Radius*c.Radius, c.Orient, c.Aperture/2
	}
	w, ok := newWedge(px, py, r2, orient, half)
	if !ok {
		return
	}
	var rows [3]span
	var spans [2]span
	for _, rs := range rows[:g.rowSpans(&rows, px, math.Sqrt(r2))] {
		for i := rs.lo; i <= rs.hi; i++ {
			x := g.coords[i]
			dx := ix.delta(px, x)
			if dx*dx > r2 {
				continue
			}
			base := int32((i - g.rowLo) * g.k)
			for _, js := range spans[:w.spans(g, &spans, dx)] {
				for j := js.lo; j <= js.hi; j++ {
					jj := g.wrap(j)
					y := g.coords[jj]
					if c == nil {
						if ix.covers(s, x, y) {
							sc.hitPt = append(sc.hitPt, base+int32(jj))
							sc.hitDir = append(sc.hitDir, ix.viewedDirection(s, x, y))
						}
					} else if p := geom.V(x, y); c.Covers(ix.torus, p) {
						sc.hitPt = append(sc.hitPt, base+int32(jj))
						sc.hitDir = append(sc.hitDir, c.ViewedDirection(ix.torus, p))
					}
				}
			}
		}
	}
}

// placeHits counting-sorts the emission stream into CSR over the n
// block points. Each point's cursor advances monotonically, so a
// point's slice keeps emission order.
func (sc *BatchScratch) placeHits(n int) ([]float64, []int32) {
	sc.offs = growI32(sc.offs, n+1)
	sc.cursor = growI32(sc.cursor, n)
	clear(sc.cursor)
	for _, p := range sc.hitPt {
		sc.cursor[p]++
	}
	total := int32(0)
	for p, c := range sc.cursor {
		sc.offs[p] = total
		sc.cursor[p] = total
		total += c
	}
	sc.offs[n] = total
	sc.dirs = growF64(sc.dirs, int(total))
	for h, p := range sc.hitPt {
		sc.dirs[sc.cursor[p]] = sc.hitDir[h]
		sc.cursor[p]++
	}
	return sc.dirs, sc.offs
}

// span is an inclusive index range, in extended coordinates: index
// e stands for e mod k (see gridBlock.wrap).
type span struct{ lo, hi int }

// wrap maps an extended index in [−k, 2k) to [0, k). Column spans stay
// there: their coordinates lie within side/2 plus two grid steps of
// [0, side), and a grid of fewer than three points per side has only
// full spans.
func (g *gridBlock) wrap(e int) int {
	if e < 0 {
		return e + g.k
	}
	if e >= g.k {
		return e - g.k
	}
	return e
}

// indexSpan returns the extended indices e whose coordinate c(e mod k)
// can lie in [lo, hi] (lo ≤ hi, both within about 1.5·side of [0,
// side)), widened by prefilterSlack·side and one grid step. full
// reports a range of k indices or more: every index once.
func (g *gridBlock) indexSpan(lo, hi float64) (s span, full bool) {
	pad := prefilterSlack*g.side + g.step
	lo, hi = lo-pad, hi+pad
	if !(hi-lo < g.side) {
		return span{}, true
	}
	// c(e) = (e + ½)·step lies in [lo, hi] ⟺ lo/step − ½ ≤ e ≤ hi/step − ½.
	s = span{int(math.Ceil(lo/g.step - 0.5)), int(math.Floor(hi/g.step - 0.5))}
	return s, s.hi-s.lo+1 >= g.k
}

// rowSpans fills rows with the block rows whose x lies within r of px
// (widened as indexSpan widens) and returns how many spans it filled:
// the extended row range shifted by −k, 0 and +k, each cut to the
// block. The range is shorter than k, so no row appears twice.
func (g *gridBlock) rowSpans(rows *[3]span, px, r float64) int {
	s, full := g.indexSpan(px-r, px+r)
	if full {
		rows[0] = span{g.rowLo, g.rowHi - 1}
		return 1
	}
	n := 0
	for shift := -g.k; shift <= g.k; shift += g.k {
		lo, hi := max(s.lo+shift, g.rowLo), min(s.hi+shift, g.rowHi-1)
		if lo <= hi {
			rows[n] = span{lo, hi}
			n++
		}
	}
	return n
}

// Wedge kinds: a sector of aperture below π is the intersection of its
// edges' half-planes; a wider one is the disc minus the convex notch
// between its edges; a sector whose widened notch closes is the disc.
const (
	wedgeConvex = iota
	wedgeNotch
	wedgeDisc
)

// wedge is one camera's sector prepared for the raster. On the line x =
// dx (relative to the camera), the two edge half-planes are the
// constraints a1·t ≥ b1·dx and a2·t ≥ b2·dx on the line's y offset t;
// for wedgeNotch they bound the excluded notch instead.
type wedge struct {
	py, r2, pad    float64
	kind           int
	a1, b1, a2, b2 float64
}

// newWedge prepares the sector at (px, py) with squared radius r2,
// orientation orient and half-aperture half, widened by
// rasterAngleSlack. ok is false for a camera at a NaN position, which
// covers no point.
func newWedge(px, py, r2, orient, half float64) (w wedge, ok bool) {
	if px != px || py != py {
		return wedge{}, false
	}
	w = wedge{py: py, r2: r2, pad: chordSlack * math.Sqrt(r2)}
	half += rasterAngleSlack
	// Edges e1 and e2 bound the kept cone (convex) or the notch, whose
	// half-angle is π − half, around orient + π.
	mid := orient
	switch {
	case half < math.Pi/2:
		w.kind = wedgeConvex
	case math.Pi-half > 0:
		w.kind = wedgeNotch
		mid, half = orient+math.Pi, math.Pi-half
	default:
		w.kind = wedgeDisc
		return w, true
	}
	s1, c1 := math.Sincos(mid - half)
	s2, c2 := math.Sincos(mid + half)
	if !(c1 == c1 && s1 == s1 && c2 == c2 && s2 == s2) {
		// A NaN orientation: no half-plane is trustworthy, keep the disc.
		w.kind = wedgeDisc
		return w, true
	}
	// The cone between e1 and e2 (angular width below π) is
	// cross(e1, d) ≥ 0 ∧ cross(d, e2) ≥ 0 for d = (dx, t).
	w.a1, w.b1 = c1, s1
	w.a2, w.b2 = -c2, -s2
	return w, true
}

// clip intersects [lo, hi] with the half-line a·t ≥ b.
func clip(lo, hi, a, b float64) (float64, float64) {
	switch {
	case a > 0:
		lo = max(lo, b/a)
	case a < 0:
		hi = min(hi, b/a)
	case b > 0:
		return 1, 0 // 0 ≥ b fails everywhere on the line
	}
	return lo, hi
}

// spans fills out with the extended column spans of the row at offset
// dx from the camera (dx² ≤ r²) that hold every point the camera can
// cover, and returns how many it filled.
func (w *wedge) spans(g *gridBlock, out *[2]span, dx float64) int {
	// covers' dy is a wrapped difference in [−side/2, side/2), so the
	// chord is cut there too; for a radius under side/2 it never is.
	h := min(math.Sqrt(max(0, w.r2-dx*dx))+w.pad, g.side/2)
	var parts [2][2]float64
	n := 0
	switch w.kind {
	case wedgeConvex:
		lo, hi := clip(-h, h, w.a1, w.b1*dx)
		lo, hi = clip(lo, hi, w.a2, w.b2*dx)
		if lo <= hi {
			parts[0] = [2]float64{lo, hi}
			n = 1
		}
	case wedgeNotch:
		u1, u2 := clip(math.Inf(-1), math.Inf(1), w.a1, w.b1*dx)
		u1, u2 = clip(u1, u2, w.a2, w.b2*dx)
		if u1 > u2 {
			parts[0] = [2]float64{-h, h}
			n = 1
			break
		}
		if hi := min(h, u1); -h <= hi {
			parts[n] = [2]float64{-h, hi}
			n++
		}
		if lo := max(-h, u2); lo <= h {
			parts[n] = [2]float64{lo, h}
			n++
		}
	default:
		parts[0] = [2]float64{-h, h}
		n = 1
	}
	if n == 0 {
		return 0
	}
	// One pass over the row at most: a union reaching k indices is the
	// whole row, and otherwise the spans lie within k consecutive
	// extended indices, so none of them repeats an index.
	whole, full := g.indexSpan(w.py+parts[0][0], w.py+parts[n-1][1])
	if full {
		out[0] = span{0, g.k - 1}
		return 1
	}
	if n == 1 {
		out[0] = whole
		return 1
	}
	first, _ := g.indexSpan(w.py+parts[0][0], w.py+parts[0][1])
	second, _ := g.indexSpan(w.py+parts[1][0], w.py+parts[1][1])
	if first.hi+1 >= second.lo {
		out[0] = whole
		return 1
	}
	out[0], out[1] = first, second
	return 2
}
