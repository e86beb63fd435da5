// Package spatial provides a toroidal spatial index over a camera
// network. Coverage queries ask "which cameras cover point P?" for
// hundreds of thousands of points; the index answers in O(local
// density) instead of O(n), and it answers two shapes of question: one
// arbitrary point at a time (the point gather, below), and whole rows of
// the paper's dense grid at a time (the grid raster, see batch.go).
// Results are exactly — bit for bit — what a brute-force scan
// through the sensor.Camera.Covers predicate would produce at the
// wrapped point Torus.Wrap(p), which is how sensor.Network's scans test
// it: the hot path uses a cheaper algebraic form of the same test and
// falls back to the exact predicate inside a guard band around decision
// boundaries.
//
// # Layout
//
// Cameras are partitioned into radius tiers (each tier spans at most a
// 2× radius ratio) and each tier gets its own bucket grid in compressed
// sparse row form. Every camera owns one CSR slot: slots run tier-major,
// then bucket by bucket, and starts []int32 holds each bucket's first
// slot. The cover-test columns (position, orientation sin/cos, squared
// radius, cos φ/2, and the orientation and half-aperture of the exact
// fallback) are stored once, in slot order, so a scan over a run of
// adjacent buckets reads each column front to back. camIdx maps a slot
// to its camera and camSlot maps back; the original structs are kept
// only for Camera(i).
//
// # Window
//
// A query visits each tier through that tier's own window of 5×5 cells
// just over half the tier's largest radius wide, so a heterogeneous
// network — the paper's whole subject — never scans the neighbourhood
// of its largest radius on behalf of its smallest group. The window is
// trimmed to the disc of that radius around the point: a window row
// whose band lies farther than the radius is skipped, and every other
// row is cut to the columns the disc reaches (see Index.window). What is
// left of a row is one contiguous slot run, or two where it crosses the
// seam. Candidate enumeration is closure-free: the gathers walk the runs
// inline and append into caller-owned scratch buffers.
//
// # Grid
//
// A dense-grid survey does not ask point by point. AppendGridDirections
// takes a block of grid rows and walks it camera-major: each candidate
// camera, found through its tier's bucket columns that reach the
// block's x-strip, turns its sector into at most two intervals per grid
// row and runs the same covers test on the points inside them. A point
// of the block ends with the same directions as its point gather, bit
// for bit, in another order.
package spatial

import (
	"math"
	"math/bits"
	"sort"

	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// maxCellsPerSide bounds index memory: cells² ints regardless of how
// small the sensing radius gets.
const maxCellsPerSide = 2048

// tierRatio is the maximum radius ratio within one tier: a camera's
// cells are scanned with at most tierRatio× its own radius as reach.
const tierRatio = 2

// coverGuard is the relative width of the guard band around the angular
// decision boundary. The algebraic test d·f̂ ≷ |d|·cos(φ/2) agrees with
// the exact atan2-based predicate whenever the two sides differ by more
// than a few ulps; any candidate within coverGuard·|d| of the boundary
// is re-examined with the exact predicate instead, keeping the index
// bit-identical to sensor.Camera.Covers for every input (including NaN,
// which fails both certainty tests and takes the exact path).
const coverGuard = 1e-9

// maxReach is the largest window reach a tier scans: cellsPerSide keeps
// cellSize > maxR/2, so ⌊maxR/cellSize⌋ + 1 ≤ 2. A tier whose rounding
// would give more scans whole instead, so a window fits in windowRuns.
const maxReach = 2

// slotRun is a half-open run [lo, hi) of CSR slots.
type slotRun struct{ lo, hi int32 }

// windowRuns holds the slot runs of one window: at most 2·maxReach+1
// rows, each split in two at most (where it crosses the seam).
type windowRuns [2 * (2*maxReach + 1)]slotRun

// Index is an immutable spatial index over the cameras of one network.
type Index struct {
	torus   geom.Torus
	side    float64
	half    float64
	cameras []sensor.Camera

	// Cover-test columns, indexed by CSR slot.
	posX, posY []float64
	orient     []float64 // orientation, normalized to [0, 2π)
	radius2    []float64 // Radius²
	halfAper   []float64 // Aperture/2
	cosOrient  []float64
	sinOrient  []float64
	cosHalf    []float64 // cos(Aperture/2)

	camIdx  []int32 // slot → camera index
	camSlot []int32 // camera index → slot

	tiers []tier
}

// tier is one radius class with its own CSR bucket grid over the slots
// [lo, hi). reach and all are the tier's scan window, decided once at
// build time: a query walks the (2·reach+1)² cells around its own, cut
// by Index.window, or the whole tier when all is set (the window would
// wrap onto itself).
type tier struct {
	maxR     float64
	cells    int
	cellSize float64
	reach    int
	all      bool
	lo, hi   int32
	starts   []int32 // length cells*cells+1; first slot of each bucket
}

// NewIndex builds an index for the network. Building is O(n log n); the
// network's cameras are copied so later mutations of the source slice
// cannot corrupt the index.
func NewIndex(net *sensor.Network) *Index {
	cameras := net.Cameras()
	t := net.Torus()
	n := len(cameras)

	ix := &Index{
		torus:   t,
		side:    t.Side(),
		half:    t.Side() / 2,
		cameras: cameras,
		camIdx:  make([]int32, n),
		camSlot: make([]int32, n),
	}
	ix.buildTiers()
	ix.posX = make([]float64, n)
	ix.posY = make([]float64, n)
	ix.orient = make([]float64, n)
	ix.radius2 = make([]float64, n)
	ix.halfAper = make([]float64, n)
	ix.cosOrient = make([]float64, n)
	ix.sinOrient = make([]float64, n)
	ix.cosHalf = make([]float64, n)
	for s, i := range ix.camIdx {
		c := &cameras[i]
		ix.camSlot[i] = int32(s)
		ix.posX[s] = c.Pos.X
		ix.posY[s] = c.Pos.Y
		ix.orient[s] = c.Orient
		ix.radius2[s] = c.Radius * c.Radius
		ix.halfAper[s] = c.Aperture / 2
		sin, cos := math.Sincos(c.Orient)
		ix.sinOrient[s] = sin
		ix.cosOrient[s] = cos
		ix.cosHalf[s] = math.Cos(c.Aperture / 2)
	}
	return ix
}

// buildTiers partitions cameras into radius classes spanning at most
// tierRatio× each, builds one CSR bucket grid per class and lays the
// classes' slots out one after another in camIdx. Tier count is
// logarithmic in the radius spread, so even a network whose radii span
// 100× gets a handful of tiers, each scanned with its own reach.
func (ix *Index) buildTiers() {
	n := len(ix.cameras)
	if n == 0 {
		return
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return ix.cameras[order[a]].Radius < ix.cameras[order[b]].Radius
	})
	for lo := 0; lo < n; {
		base := ix.cameras[order[lo]].Radius
		hi := lo + 1
		for hi < n && ix.cameras[order[hi]].Radius <= tierRatio*base {
			hi++
		}
		ix.tiers = append(ix.tiers, ix.buildTier(order[lo:hi], int32(lo)))
		lo = hi
	}
}

// buildTier lays the given cameras into one CSR bucket grid sized for
// the group's largest radius, filling the slots from lo on.
func (ix *Index) buildTier(members []int32, lo int32) tier {
	maxR := 0.0
	for _, i := range members {
		if r := ix.cameras[i].Radius; r > maxR {
			maxR = r
		}
	}
	cells := cellsPerSide(ix.side, maxR, len(members))
	t := tier{
		maxR:     maxR,
		cells:    cells,
		cellSize: ix.side / float64(cells),
		lo:       lo,
		hi:       lo + int32(len(members)),
		starts:   make([]int32, cells*cells+1),
	}
	// A covering camera lies within maxR of the point, so on each axis
	// their cell indices differ by at most ⌊maxR/cellSize⌋ + 1: two
	// coordinates less than k cell widths apart can straddle k cell
	// edges. A window as wide as the grid scans the whole tier.
	t.reach = int(t.maxR/t.cellSize) + 1
	t.all = cells == 1 || 2*t.reach+1 >= cells || t.reach > maxReach
	// Counting sort into CSR: bucket sizes, prefix sums, then placement.
	t.starts[0] = lo
	for _, i := range members {
		p := ix.cameras[i].Pos
		t.starts[t.bucketOf(p.X, p.Y)+1]++
	}
	for b := 1; b < len(t.starts); b++ {
		t.starts[b] += t.starts[b-1]
	}
	cursor := make([]int32, cells*cells)
	for _, i := range members {
		p := ix.cameras[i].Pos
		b := t.bucketOf(p.X, p.Y)
		ix.camIdx[t.starts[b]+cursor[b]] = i
		cursor[b]++
	}
	return t
}

// bucketOf maps an already-wrapped position to its bucket.
func (t *tier) bucketOf(x, y float64) int32 {
	return int32(t.cellOf(y)*t.cells + t.cellOf(x))
}

// cellOf maps an already-wrapped coordinate to its cell column (or row).
func (t *tier) cellOf(x float64) int {
	c := int(x / t.cellSize)
	// Guard against x/cellSize rounding up to t.cells.
	if c >= t.cells {
		c = t.cells - 1
	}
	return c
}

// cellsPerSide picks a tier's grid resolution: ideally ceil(2·side/maxR)
// − 1 cells per side, the fewest that keep cellSize > maxR/2 strictly,
// so the tier's reach is 2 and a query scans 5×5 half-radius cells — a
// window about 2.5·maxR wide (radius-sized cells would give the same
// reach over 5·maxR). But never more cells than roughly 2√n per side (so
// memory stays proportional to n) and never more than maxCellsPerSide.
func cellsPerSide(side, maxR float64, n int) int {
	if n == 0 || maxR <= 0 {
		return 1
	}
	cells := int(2*math.Sqrt(float64(n))) + 1
	if cells > maxCellsPerSide {
		cells = maxCellsPerSide
	}
	// Compared in float64 so a radius tiny against the side cannot
	// overflow the int conversion.
	if byRadius := math.Ceil(2*side/maxR) - 1; byRadius < float64(cells) {
		cells = int(byRadius)
	}
	if cells < 1 {
		cells = 1
	}
	return cells
}

// Len returns the number of indexed cameras.
func (ix *Index) Len() int { return len(ix.cameras) }

// Camera returns the i-th indexed camera.
func (ix *Index) Camera(i int) sensor.Camera { return ix.cameras[i] }

// Torus returns the operational region.
func (ix *Index) Torus() geom.Torus { return ix.torus }

// delta returns the shortest toroidal displacement from a to b for
// coordinates already wrapped into [0, side) — bit-identical to
// geom.Torus.Delta's per-coordinate result, whose math.Mod is the
// identity on |b−a| < side.
func (ix *Index) delta(a, b float64) float64 {
	d := b - a
	if d < -ix.half {
		d += ix.side
	} else if d >= ix.half {
		d -= ix.side
	}
	return d
}

// covers reports whether the camera in slot s covers the wrapped point
// (px, py). The result is bit-identical to sensor.Camera.Covers: the
// radius test is the same arithmetic, and the angular test uses the
// algebraic form with a guard band that defers to the exact predicate
// when the margin is within coverGuard·|d| of the boundary.
func (ix *Index) covers(s int32, px, py float64) bool {
	dx := ix.delta(ix.posX[s], px)
	dy := ix.delta(ix.posY[s], py)
	n2 := dx*dx + dy*dy
	if n2 > ix.radius2[s] {
		return false
	}
	if dx == 0 && dy == 0 {
		return true
	}
	// ∠(d, f) ≤ φ/2  ⟺  d·f̂ ≥ |d|·cos(φ/2)   (cos is monotone on [0, π]).
	dot := dx*ix.cosOrient[s] + dy*ix.sinOrient[s]
	norm := math.Sqrt(n2)
	rhs := norm * ix.cosHalf[s]
	margin := coverGuard * norm
	if dot-rhs > margin {
		return true
	}
	if rhs-dot > margin {
		return false
	}
	return ix.coversExact(s, dx, dy)
}

// coversExact is the boundary fallback: the angular predicate exactly
// as sensor.Camera.Covers computes it. Kept out of covers so the hot
// path stays small enough to inline.
func (ix *Index) coversExact(s int32, dx, dy float64) bool {
	return geom.AngularDistance(geom.Vec{X: dx, Y: dy}.Angle(), ix.orient[s]) <= ix.halfAper[s]
}

// viewedDirection returns the viewed direction of wrapped point (px,
// py) with respect to the camera in slot s, bit-identical to
// sensor.Camera.ViewedDirection (the angle of the vector P→S).
func (ix *Index) viewedDirection(s int32, px, py float64) float64 {
	return geom.Vec{X: ix.delta(px, ix.posX[s]), Y: ix.delta(py, ix.posY[s])}.Angle()
}

// window fills runs with the slot runs of tier t that a camera covering
// the wrapped point (px, py) can sit in, and returns how many it filled.
//
// A whole-tier tier yields its one run. Otherwise the rows and columns
// of the (2·reach+1)² window around the point's cell are walked in the
// order the untrimmed walk visited them — rows up, columns left to
// right from the window's left edge, across the seam — but a row whose
// band lies farther than maxR from the point is skipped, and the others
// keep only the columns within √(maxR² − h²) of the point, h being the
// row's distance. Both tests widen maxR and shrink h by prefilterSlack,
// which dwarfs the rounding of the cell arithmetic, so every camera the
// exact per-point test could accept stays in a run. A point with a NaN
// coordinate (Wrap maps ±Inf to NaN) is covered by no camera and yields
// no run.
func (ix *Index) window(t *tier, runs *windowRuns, px, py float64) int {
	if px != px || py != py {
		return 0
	}
	if t.all {
		runs[0] = slotRun{t.lo, t.hi}
		return 1
	}
	cs, cells := t.cellSize, t.cells
	slack := prefilterSlack * ix.side
	r := t.maxR + slack
	pcx, pcy := t.cellOf(px), t.cellOf(py)
	n := 0
	for ry := pcy - t.reach; ry <= pcy+t.reach; ry++ {
		h := max(float64(ry)*cs-py, py-float64(ry+1)*cs) - slack
		if h > r {
			continue
		}
		w := r + slack
		if h > 0 {
			w = math.Sqrt(r*r-h*h) + slack
		}
		cLo := max(int(math.Floor((px-w)/cs)), pcx-t.reach)
		cHi := min(int(math.Floor((px+w)/cs)), pcx+t.reach)
		row := t.starts[wrapCell(ry, cells)*cells:]
		switch {
		case cLo < 0:
			n = appendRun(runs, n, row, cLo+cells, cells-1)
			n = appendRun(runs, n, row, 0, cHi)
		case cHi >= cells:
			n = appendRun(runs, n, row, cLo, cells-1)
			n = appendRun(runs, n, row, 0, cHi-cells)
		default:
			n = appendRun(runs, n, row, cLo, cHi)
		}
	}
	return n
}

// appendRun stores the slots of columns [c0, c1] of the row whose
// bucket offsets start at row[0] as runs[n], unless the run is empty.
func appendRun(runs *windowRuns, n int, row []int32, c0, c1 int) int {
	if c0 > c1 {
		return n
	}
	if lo, hi := row[c0], row[c1+1]; lo < hi {
		runs[n] = slotRun{lo, hi}
		n++
	}
	return n
}

// nearChunk is how many slots nearSlots filters at a time.
const nearChunk = 64

// nearSlots writes to near the slots in [lo, hi) whose camera's disc
// holds the wrapped point (px, py) — covers' radius test, same
// arithmetic — and returns how many it wrote. The pass is branch-free
// in the test, so the angular test that follows runs on the few
// survivors without a mispredicted branch per rejected candidate.
func (ix *Index) nearSlots(near *[nearChunk]int32, lo, hi int32, px, py float64) int {
	xs, ys, r2s := ix.posX[lo:hi], ix.posY[lo:hi], ix.radius2[lo:hi]
	ys, r2s = ys[:len(xs)], r2s[:len(xs)]
	k := 0
	for j, x := range xs {
		dx := ix.delta(x, px)
		dy := ix.delta(ys[j], py)
		near[k&(nearChunk-1)] = lo + int32(j)
		if dx*dx+dy*dy <= r2s[j] {
			k++
		}
	}
	return k
}

// AppendViewedDirections appends the viewed directions (angle of P→S)
// of every camera covering p to dst and returns the extended slice.
// Passing a reused buffer avoids per-point allocations in grid sweeps.
func (ix *Index) AppendViewedDirections(dst []float64, p geom.Vec) []float64 {
	return ix.appendViewedDirections(dst, p, nil)
}

// appendViewedDirections is the point gather shared by Index and View.
// d is the mutation overlay (nil for a pure Index): a candidate whose
// removed bit is set is skipped, and the overlay-added cameras are
// scanned last with the exact sensor predicates, which the algebraic
// covers test is bit-identical to by contract. The emission order is
// tier, window row, column, CSR slot, then added cameras.
func (ix *Index) appendViewedDirections(dst []float64, p geom.Vec, d *overlay) []float64 {
	p = ix.torus.Wrap(p)
	var runs windowRuns
	var near [nearChunk]int32
	for ti := range ix.tiers {
		nr := ix.window(&ix.tiers[ti], &runs, p.X, p.Y)
		for _, r := range runs[:nr] {
			for lo := r.lo; lo < r.hi; lo += nearChunk {
				k := ix.nearSlots(&near, lo, min(lo+nearChunk, r.hi), p.X, p.Y)
				for _, s := range near[:k] {
					if ix.covers(s, p.X, p.Y) && (d == nil || !d.isRemoved(ix.camIdx[s])) {
						dst = append(dst, ix.viewedDirection(s, p.X, p.Y))
					}
				}
			}
		}
	}
	if d != nil {
		for j := range d.added {
			if d.added[j].Covers(ix.torus, p) {
				dst = append(dst, d.added[j].ViewedDirection(ix.torus, p))
			}
		}
	}
	return dst
}

// CountCovering returns the number of cameras covering p — the point's
// traditional k-coverage multiplicity.
func (ix *Index) CountCovering(p geom.Vec) int {
	p = ix.torus.Wrap(p)
	var runs windowRuns
	var near [nearChunk]int32
	count := 0
	for ti := range ix.tiers {
		nr := ix.window(&ix.tiers[ti], &runs, p.X, p.Y)
		for _, r := range runs[:nr] {
			for lo := r.lo; lo < r.hi; lo += nearChunk {
				k := ix.nearSlots(&near, lo, min(lo+nearChunk, r.hi), p.X, p.Y)
				for _, s := range near[:k] {
					if ix.covers(s, p.X, p.Y) {
						count++
					}
				}
			}
		}
	}
	return count
}

// countCovering is CountCovering through the overlay d (nil for a pure
// Index). The pristine walk above stays free of overlay checks — it is
// the k-coverage kernel — so the overlay is applied as a correction:
// removed base cameras that cover p were counted by the walk and come
// off, covering added cameras go on.
func (ix *Index) countCovering(p geom.Vec, d *overlay) int {
	count := ix.CountCovering(p)
	if d == nil {
		return count
	}
	p = ix.torus.Wrap(p)
	for w, word := range d.removed {
		for ; word != 0; word &= word - 1 {
			if ix.covers(ix.camSlot[w*64+bits.TrailingZeros64(word)], p.X, p.Y) {
				count--
			}
		}
	}
	for j := range d.added {
		if d.added[j].Covers(ix.torus, p) {
			count++
		}
	}
	return count
}

func wrapCell(c, cells int) int {
	if c < 0 {
		return c + cells
	}
	if c >= cells {
		return c - cells
	}
	return c
}
