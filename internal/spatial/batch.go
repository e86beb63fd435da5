// Batch gather: the cell-sorted execution path of the spatial index.
//
// Grid workloads — surveys, sweeps, job bands — evaluate dense point
// sets whose neighbours land in the same bucket of every tier grid. The
// point-at-a-time entry points re-derive that bucket, re-walk the same
// (2·reach+1)² cell window — 5×5 cells just over half the tier's radius
// wide, see cellsPerSide — and re-scan the same CSR candidate rows for
// every single point. The batch path amortises all of that: points are
// sorted by grid cell once per tier (a single []int64 key sort over
// reusable scratch, zero allocations in the steady state), each occupied
// cell-neighbourhood is walked exactly once per batch, and every
// candidate row is scanned candidate-major — the camera's SoA columns
// (position, orientation sin/cos, radius², cos φ/2) are loaded into
// registers once and tested against the whole cell's points — instead of
// point-major.
//
// Two further savings fall out of the cell grouping:
//
//   - The per-point bucket lookup becomes one key sort per tier, and the
//     toroidal Wrap of each point runs once per batch rather than once
//     per call.
//   - A conservative cell-level prefilter rejects candidates whose disc
//     cannot reach any point of the group: the group's bounding box is
//     compared against the candidate's radius with a slack far larger
//     than the accumulated rounding error, so a skipped candidate is one
//     the exact per-point test would provably reject too (see
//     prefilterSlack). Bit-identity is preserved because skipping only
//     removes candidates whose covers() is false for every group point.
//
// Results are not merely the same multiset as the point-at-a-time path —
// they are the same per-point sequences. Tiers are processed in index
// order, buckets in the same (dy, dx) walk order, candidates in CSR row
// order, and overlay-added cameras last; the final counting-sort
// placement is stable in emission order, so each point's slice of the
// CSR result equals AppendViewedDirections(nil, p) element for element.
// A View runs the identical engine with its overlay, the removed-bitmap
// check hoisted to once per candidate.
package spatial

import (
	"math"
	"slices"

	"fullview/internal/geom"
)

// prefilterSlack is the absolute slack (as a fraction of the torus
// side) subtracted from the cell-level lower distance bound before it
// may reject a candidate. The bound is assembled from a handful of
// additions and one halving — each exact to ~1 ulp (≈2e-16 relative) —
// so a 1e-12·side margin exceeds the worst-case accumulated error by
// almost four orders of magnitude while remaining far below any sensing
// radius the index would ever bucket. A candidate rejected under this
// slack therefore provably fails the per-point radius test for every
// point of the group, keeping batch verdicts bit-identical to the
// point-at-a-time path.
const prefilterSlack = 1e-12

// BatchScratch owns every buffer the batch gather needs. The zero value
// is ready to use; buffers grow on first use and are reused by later
// batches, so a caller that keeps one scratch per worker pays zero
// allocations per point in the steady state. A BatchScratch must not be
// shared between goroutines.
type BatchScratch struct {
	wx, wy []float64 // wrapped point coordinates, indexed like the batch
	keys   []int64   // per-tier sort keys: bucket<<32 | point index
	gx, gy []float64 // current group's coordinates, unpacked contiguously
	gi     []int32   // current group's batch point indices, same order
	hitPt  []int32   // emission-ordered (point, camera) covering pairs
	hitCam []int32
	counts []int32   // per-point hit counts, then placement cursors
	offs   []int32   // CSR offsets over the batch (len = points+1)
	dirs   []float64 // result storage for AppendViewedDirectionsBatch
}

// growI32 returns a length-n slice, reusing s's storage when it is
// large enough.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
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
// cameras covering every point in the batch through the cell-sorted
// gather. The result is CSR over the batch: dirs[offs[i]:offs[i+1]]
// equals AppendViewedDirections(nil, points[i]) element for element.
// Both returned slices are owned by sc and are valid until its next
// batch call.
func (ix *Index) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) (dirs []float64, offs []int32) {
	return ix.appendViewedDirectionsBatch(sc, points, nil)
}

// AppendViewedDirectionsBatch implements Source over the pinned
// snapshot.
func (v *View) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) ([]float64, []int32) {
	return v.s.base.appendViewedDirectionsBatch(sc, points, v.s.delta)
}

func (ix *Index) appendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec, d *overlay) ([]float64, []int32) {
	ix.gatherBatch(sc, points, d)
	return sc.placeDirs(ix, d)
}

// gatherBatch runs the cell-sorted candidate scan for the whole batch,
// leaving the emission-ordered (point, camera) pairs and per-point
// counts in sc. d is the mutation overlay (nil for a pure Index), whose
// removed bitmap is consulted once per candidate and whose added
// cameras are scanned last with the exact sensor predicates — the same
// order the point-at-a-time overlay path uses.
func (ix *Index) gatherBatch(sc *BatchScratch, points []geom.Vec, d *overlay) {
	n := len(points)
	sc.wx = growF64(sc.wx, n)
	sc.wy = growF64(sc.wy, n)
	sc.keys = growI64(sc.keys, n)
	sc.gx = growF64(sc.gx, n)
	sc.gy = growF64(sc.gy, n)
	sc.gi = growI32(sc.gi, n)
	sc.counts = growI32(sc.counts, n)
	sc.hitPt = sc.hitPt[:0]
	sc.hitCam = sc.hitCam[:0]
	for i := range sc.counts[:n] {
		sc.counts[i] = 0
	}
	if n == 0 {
		return
	}
	for i, p := range points {
		w := ix.torus.Wrap(p)
		sc.wx[i] = w.X
		sc.wy[i] = w.Y
	}

	for ti := range ix.tiers {
		t := &ix.tiers[ti]
		if t.all {
			// Whole-tier scan (the span "all" case), hoisted to once per
			// batch: every candidate row is t.camIdx, every point is in
			// one group.
			sc.keys = sc.keys[:n]
			for i := 0; i < n; i++ {
				sc.keys[i] = int64(i)
			}
			g := sc.prepareGroup(sc.keys[:n])
			ix.scanCandidates(sc, d, t.camIdx, g)
			continue
		}
		reach, cells := t.reach, t.cells
		// Sort the batch by bucket: key = bucket<<32 | index, so equal
		// buckets group together and ties keep batch order, making the
		// grouping deterministic.
		sc.keys = sc.keys[:n]
		for i := 0; i < n; i++ {
			cx := int(sc.wx[i] / t.cellSize)
			cy := int(sc.wy[i] / t.cellSize)
			if cx >= cells {
				cx = cells - 1
			}
			if cy >= cells {
				cy = cells - 1
			}
			sc.keys[i] = int64(cy*cells+cx)<<32 | int64(i)
		}
		slices.Sort(sc.keys)
		for lo := 0; lo < n; {
			bucket := sc.keys[lo] >> 32
			hi := lo + 1
			for hi < n && sc.keys[hi]>>32 == bucket {
				hi++
			}
			g := sc.prepareGroup(sc.keys[lo:hi])
			pcx := int(bucket) % cells
			pcy := int(bucket) / cells
			for dy := -reach; dy <= reach; dy++ {
				row := wrapCell(pcy+dy, cells) * cells
				for dx := -reach; dx <= reach; dx++ {
					b := row + wrapCell(pcx+dx, cells)
					ix.scanCandidates(sc, d, t.camIdx[t.starts[b]:t.starts[b+1]], g)
				}
			}
			lo = hi
		}
	}

	if d != nil {
		// Overlay-added cameras come last, exactly as in the point path,
		// via the exact sensor predicates the CSR test is bit-identical
		// to by contract.
		baseLen := int32(ix.Len())
		for j := range d.added {
			cam := &d.added[j]
			ci := baseLen + int32(j)
			for i := 0; i < n; i++ {
				if cam.Covers(ix.torus, geom.Vec{X: sc.wx[i], Y: sc.wy[i]}) {
					sc.hitPt = append(sc.hitPt, int32(i))
					sc.hitCam = append(sc.hitCam, ci)
					sc.counts[i]++
				}
			}
		}
	}
}

// groupView describes one prepared point group: its size (the leading
// n elements of sc.gx/gy/gi) and its bounding box in wrapped
// coordinates.
type groupView struct {
	n                      int
	minX, maxX, minY, maxY float64
}

// prepareGroup unpacks one sorted-key group into the contiguous gx/gy/gi
// scratch columns — so the candidate-major inner loops stream over dense
// memory instead of re-deriving indices from packed keys — and computes
// the group's bounding box. Points of one bucket never straddle the wrap
// seam (all coordinates live in [0, side)), so the box is a plain
// interval per axis; for the whole-tier case the box may span the whole
// domain and the prefilter simply stops rejecting.
func (sc *BatchScratch) prepareGroup(group []int64) groupView {
	n := len(group)
	gx, gy, gi := sc.gx[:n], sc.gy[:n], sc.gi[:n]
	i0 := int32(uint64(group[0]) & 0xffffffff)
	x0, y0 := sc.wx[i0], sc.wy[i0]
	gx[0], gy[0], gi[0] = x0, y0, i0
	g := groupView{n: n, minX: x0, maxX: x0, minY: y0, maxY: y0}
	for k := 1; k < n; k++ {
		i := int32(uint64(group[k]) & 0xffffffff)
		x, y := sc.wx[i], sc.wy[i]
		gx[k], gy[k], gi[k] = x, y, i
		if x < g.minX {
			g.minX = x
		} else if x > g.maxX {
			g.maxX = x
		}
		if y < g.minY {
			g.minY = y
		} else if y > g.maxY {
			g.maxY = y
		}
	}
	return g
}

// scanCandidates tests one candidate row against one prepared point
// group, candidate-major: each camera's SoA columns are loaded once and
// held across the whole group. The cell-level prefilter rejects a
// candidate only when its disc provably misses the group's bounding
// box; every surviving candidate runs the exact covers arithmetic, so
// emissions are bit-identical to the per-point gather's.
//
// Before the inner loop, the toroidal wrap of each axis is classified
// once per candidate against the group's bounding box: floating-point
// subtraction is monotone, so every computed difference gx[k]−px lies in
// [minX−px, maxX−px], and when that whole interval falls on one side of
// the ±half wrap boundaries the per-point branch outcome is uniform —
// the correction becomes a loop-invariant constant (±side or none) and
// the hot loop runs with a single data-dependent branch (the radius
// test) instead of five. The applied arithmetic is exactly the
// point-at-a-time path's (the same conditional ±side add on the same
// computed difference), so results stay bit-identical; groups whose
// interval straddles a wrap boundary (only possible near the torus
// seam) take the fully-branchy fallback, which is the oracle verbatim.
func (ix *Index) scanCandidates(sc *BatchScratch, d *overlay, cands []int32, g groupView) {
	if len(cands) == 0 || g.n == 0 {
		return
	}
	gx, gy, gi := sc.gx[:g.n], sc.gy[:g.n], sc.gi[:g.n]
	cx0 := (g.minX + g.maxX) / 2
	cy0 := (g.minY + g.maxY) / 2
	hx := (g.maxX-g.minX)/2 + prefilterSlack*ix.side
	hy := (g.maxY-g.minY)/2 + prefilterSlack*ix.side

	side, half := ix.side, ix.half
	for _, c := range cands {
		if d != nil && d.isRemoved(c) {
			continue
		}
		px, py := ix.posX[c], ix.posY[c]
		r2 := ix.radius2[c]

		// Conservative reject: circle-metric distance from the camera to
		// the box centre, minus the (slack-inflated) half extents, is a
		// lower bound on the distance to every group point; if even that
		// bound exceeds the radius, covers() is false for the whole
		// group.
		adx := cx0 - px
		if adx < -half {
			adx += side
		} else if adx >= half {
			adx -= side
		}
		if adx < 0 {
			adx = -adx
		}
		ady := cy0 - py
		if ady < -half {
			ady += side
		} else if ady >= half {
			ady -= side
		}
		if ady < 0 {
			ady = -ady
		}
		if adx -= hx; adx < 0 {
			adx = 0
		}
		if ady -= hy; ady < 0 {
			ady = 0
		}
		if adx*adx+ady*ady > r2 {
			continue
		}

		// Wrap classification: the computed differences for this
		// candidate span [lo, hi] per axis (monotone FP subtraction).
		var corrX, corrY float64
		mixed := false
		if lo, hi := g.minX-px, g.maxX-px; hi < -half {
			corrX = side
		} else if lo >= half {
			corrX = -side
		} else if lo < -half || hi >= half {
			mixed = true
		}
		if lo, hi := g.minY-py, g.maxY-py; hi < -half {
			corrY = side
		} else if lo >= half {
			corrY = -side
		} else if lo < -half || hi >= half {
			mixed = true
		}

		co, si := ix.cosOrient[c], ix.sinOrient[c]
		ch := ix.cosHalf[c]
		if mixed {
			// Seam-straddling group: per-point wrap branches, exactly the
			// point-at-a-time arithmetic.
			for k := 0; k < g.n; k++ {
				dxp := gx[k] - px
				if dxp < -half {
					dxp += side
				} else if dxp >= half {
					dxp -= side
				}
				dyp := gy[k] - py
				if dyp < -half {
					dyp += side
				} else if dyp >= half {
					dyp -= side
				}
				n2 := dxp*dxp + dyp*dyp
				if n2 > r2 {
					continue
				}
				if dxp != 0 || dyp != 0 {
					dot := dxp*co + dyp*si
					norm := math.Sqrt(n2)
					rhs := norm * ch
					margin := coverGuard * norm
					if dot-rhs > margin {
						// covered
					} else if rhs-dot > margin {
						continue
					} else if !ix.coversExact(c, dxp, dyp) {
						continue
					}
				}
				i := gi[k]
				sc.hitPt = append(sc.hitPt, i)
				sc.hitCam = append(sc.hitCam, c)
				sc.counts[i]++
			}
			continue
		}
		for k := 0; k < g.n; k++ {
			// Inline ix.covers with the camera columns held in locals and
			// the wrap correction hoisted; arithmetic and guard-band
			// fallback are identical. The corr != 0 guards preserve the
			// unwrapped difference bit for bit (including a −0.0 from a
			// point coincident with the camera) and predict perfectly —
			// they are loop-invariant.
			dxp := gx[k] - px
			if corrX != 0 {
				dxp += corrX
			}
			dyp := gy[k] - py
			if corrY != 0 {
				dyp += corrY
			}
			n2 := dxp*dxp + dyp*dyp
			if n2 > r2 {
				continue
			}
			if dxp != 0 || dyp != 0 {
				dot := dxp*co + dyp*si
				norm := math.Sqrt(n2)
				rhs := norm * ch
				margin := coverGuard * norm
				if dot-rhs > margin {
					// covered
				} else if rhs-dot > margin {
					continue
				} else if !ix.coversExact(c, dxp, dyp) {
					continue
				}
			}
			i := gi[k]
			sc.hitPt = append(sc.hitPt, i)
			sc.hitCam = append(sc.hitCam, c)
			sc.counts[i]++
		}
	}
}

// buildOffsets turns the per-point counts into CSR offsets and resets
// the counts to per-point placement cursors.
func (sc *BatchScratch) buildOffsets(n int) int {
	sc.offs = growI32(sc.offs, n+1)
	total := int32(0)
	sc.offs[0] = 0
	for i := 0; i < n; i++ {
		total += sc.counts[i]
		sc.offs[i+1] = total
		sc.counts[i] = sc.offs[i]
	}
	return int(total)
}

// placeDirs materialises the CSR viewed-direction result from the
// emission stream. Placement walks hits in emission order and each
// point's cursor advances monotonically, so per-point order equals
// emission order — the point-at-a-time candidate order. Base cameras go
// through the index's viewedDirection (bit-identical to the point path),
// overlay additions through the exact sensor predicate.
func (sc *BatchScratch) placeDirs(ix *Index, d *overlay) ([]float64, []int32) {
	n := len(sc.wx)
	total := sc.buildOffsets(n)
	sc.dirs = growF64(sc.dirs, total)
	baseLen := int32(ix.Len())
	for h, p := range sc.hitPt {
		c := sc.hitCam[h]
		var dir float64
		if c < baseLen {
			dir = ix.viewedDirection(c, sc.wx[p], sc.wy[p])
		} else {
			dir = d.added[c-baseLen].ViewedDirection(ix.torus, geom.Vec{X: sc.wx[p], Y: sc.wy[p]})
		}
		sc.dirs[sc.counts[p]] = dir
		sc.counts[p]++
	}
	return sc.dirs, sc.offs[:n+1]
}
