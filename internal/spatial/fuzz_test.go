package spatial

import (
	"math"
	"slices"
	"testing"

	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// fuzzDecoder reads fixed-width fields from a fuzz input. Past the end
// every field reads as zero, so any byte string decodes.
type fuzzDecoder struct{ b []byte }

func (d *fuzzDecoder) u8() int {
	if len(d.b) == 0 {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return int(v)
}

func (d *fuzzDecoder) u16() int { return d.u8()<<8 | d.u8() }

// unit returns a fraction in [0, 1).
func (d *fuzzDecoder) unit() float64 { return float64(d.u16()) / 65536 }

// camera decodes one valid camera (8 bytes): positions range past the
// torus so NewNetwork and Add wrap them, radii span 0.004…0.512 of the
// side in powers of two so several tiers fill and the large ones take
// whole-tier scans, apertures cover (0, 2π].
func (d *fuzzDecoder) camera(side float64) sensor.Camera {
	return sensor.Camera{
		Pos:      geom.V((d.unit()*1.5-0.25)*side, (d.unit()*1.5-0.25)*side),
		Orient:   (d.unit() - 0.5) * 4 * math.Pi,
		Radius:   0.004 * float64(int(1)<<(d.u8()%8)) * side,
		Aperture: float64(1+d.u8()) / 256 * geom.TwoPi,
	}
}

// point decodes one query point against the live list. Modes: 0 uniform;
// 1 on the wrap seam; 2 exactly on a camera (zero displacement); 3 on a
// camera's radius inside its aperture; 4 on a camera's aperture edge;
// 5 non-finite (NaN, +Inf or −Inf in x, y or both).
func (d *fuzzDecoder) point(side float64, live []sensor.Camera) geom.Vec {
	mode := d.u8() % 6
	if mode >= 2 && mode <= 4 && len(live) == 0 {
		mode = 0
	}
	switch mode {
	case 5:
		s := d.u8()
		v, u := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[s%3], d.unit()*side
		switch s / 3 % 3 {
		case 0:
			return geom.V(v, u)
		case 1:
			return geom.V(u, v)
		}
		return geom.V(v, v)
	case 1:
		seam := []float64{0, math.Nextafter(side, 0), side, -1e-17, math.Nextafter(side, 2*side)}
		s := d.u8()
		x, y := seam[s%len(seam)], d.unit()*side
		if s&8 != 0 {
			x, y = y, x
		}
		return geom.V(x, y)
	case 2:
		return live[d.u8()%len(live)].Pos
	case 3:
		c := live[d.u8()%len(live)]
		dir := c.Orient + (d.unit()-0.5)*c.Aperture
		return c.Pos.Add(geom.FromPolar(c.Radius, dir))
	case 4:
		c := live[d.u8()%len(live)]
		edge := c.Aperture / 2
		if d.u8()&1 != 0 {
			edge = -edge
		}
		return c.Pos.Add(geom.FromPolar(c.Radius*d.unit(), c.Orient+edge))
	}
	return geom.V(d.unit()*side, d.unit()*side)
}

// fuzzSeed encodes inputs for FuzzGather in the decoder's layout.
type fuzzSeed []byte

func (s fuzzSeed) u8(v ...int) fuzzSeed {
	for _, x := range v {
		s = append(s, byte(x))
	}
	return s
}

func (s fuzzSeed) u16(v ...int) fuzzSeed {
	for _, x := range v {
		s = append(s, byte(x>>8), byte(x))
	}
	return s
}

// cam encodes a camera at fractions (x, y) of the decoder's position
// range, facing fraction o of its orientation range.
func (s fuzzSeed) cam(x, y, o float64, radius, aperture int) fuzzSeed {
	return s.u16(int(x*65536), int(y*65536), int(o*65536)).u8(radius, aperture)
}

// FuzzGather decodes a small heterogeneous network, a short
// Reaim/Remove/Add/rebuild sequence and a few query points, then checks
// every gather against a brute-force Camera.Covers / ViewedDirection
// scan of the live list, exact bits and same multiset: the point path
// and the batch CSR rows of a fresh Index over the live list and of a
// View whose overlay carries the mutations, and CountCovering on both.
// Each batch row must also equal the point-path sequence element for
// element.
func FuzzGather(f *testing.F) {
	// Three cameras, one removed; points on the survivors' positions.
	f.Add([]byte(fuzzSeed{}.u8(0, 3).
		cam(0.3, 0.3, 0.1, 4, 255).cam(0.5, 0.5, 0.7, 5, 60).cam(0.6, 0.4, 0.4, 3, 128).
		u8(1, 1, 0).
		u8(3, 2, 0, 2, 1, 0, 0x80, 0)))
	// Cameras straddling the corner of a non-unit torus, queried on the
	// seam, with a re-aim and an add in the overlay.
	f.Add([]byte(fuzzSeed{}.u8(1, 4).
		cam(0.16, 0.16, 0.2, 5, 200).cam(0.83, 0.83, 0.9, 6, 255).cam(0.17, 0.83, 0.5, 4, 90).cam(0.84, 0.17, 0.0, 7, 40).
		u8(2, 0, 1).u16(0x4000).u8(2).cam(0.165, 0.84, 0.3, 5, 255).
		u8(4, 1, 0).u16(0x1234).u8(1, 9).u16(0x8000).u8(1, 1).u16(0).u8(1, 3).u16(0xfff0)))
	// Radius and aperture boundaries, before and after a rebuild folds
	// the overlay, with a larger tier that scans whole.
	f.Add([]byte(fuzzSeed{}.u8(2, 5).
		cam(0.4, 0.4, 0.25, 2, 64).cam(0.45, 0.42, 0.6, 7, 32).cam(0.7, 0.2, 0.8, 0, 16).cam(0.1, 0.9, 0.3, 3, 200).cam(0.5, 0.5, 0.5, 1, 100).
		u8(4, 1, 4, 3, 2).cam(0.41, 0.41, 0.7, 4, 50).u8(0, 1).u16(0x2000).
		u8(6, 3, 0).u16(0x8000).u8(3, 1).u16(0).u8(4, 0).u16(0x8000).u8(0, 4, 1).u16(0xc000).u8(1, 2, 2)))
	// Non-finite points — NaN, +Inf and −Inf in x, in y and in both —
	// through a View whose overlay removes a base camera and adds one,
	// with a whole-tier radius across the seam. The batch leads with a
	// NaN point so a group's bounding box must not absorb it.
	f.Add([]byte(fuzzSeed{}.u8(0, 4).
		cam(0.2, 0.3, 0.1, 2, 200).cam(0.7667, 0.5, 0.6, 7, 255).cam(0.6, 0.6, 0.3, 5, 90).cam(0.3, 0.9, 0.8, 3, 128).
		u8(2, 1, 0, 2).cam(0.5, 0.5, 0.2, 6, 255).
		u8(7, 5, 0).u16(0x4000).u8(1, 2).u16(0x8000).u8(5, 1).u16(0x2000).u8(5, 2).u16(0x6000).
		u8(5, 3).u16(0x4000).u8(5, 4).u16(0xc000).u8(5, 5).u16(0x1000).u8(5, 7).u16(0).u8(5, 8).u16(0)))
	// The same on the side-10 torus, where every camera sits in a
	// windowed tier: the point walk and the count walk must not index a
	// cell from a NaN coordinate.
	f.Add([]byte(fuzzSeed{}.u8(2, 6).
		cam(0.1, 0.1, 0.1, 0, 255).cam(0.3, 0.2, 0.5, 0, 255).cam(0.5, 0.6, 0.9, 1, 200).cam(0.7, 0.8, 0.2, 1, 160).cam(0.2, 0.7, 0.7, 0, 100).cam(0.9, 0.4, 0.4, 1, 255).
		u8(0).
		u8(5, 5, 0).u16(0x8000).u8(5, 4).u16(0x8000).u8(5, 8).u16(0).u8(0).u16(0x4000, 0x4000).u8(5, 6).u16(0).u8(5, 1).u16(0xffff)))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{b: data}
		side := []float64{1, 0.37, 10}[d.u8()%3]
		torus, err := geom.NewTorus(side)
		if err != nil {
			t.Fatal(err)
		}
		cams := make([]sensor.Camera, d.u8()%13)
		for i := range cams {
			cams[i] = d.camera(side)
		}
		net, err := sensor.NewNetwork(torus, cams)
		if err != nil {
			t.Fatal(err)
		}
		live := net.Cameras()
		m := NewMutableIndex(net, MutableOptions{RebuildFraction: -1})
		for k := d.u8() % 6; k > 0; k-- {
			var mut oracleMutation
			switch d.u8() % 4 {
			case 0:
				idx, orient := d.u8(), (d.unit()-0.5)*4*math.Pi
				if len(live) == 0 {
					continue
				}
				mut.reaim = []ReaimOp{{Index: idx % len(live), Orient: orient}}
			case 1:
				idx := d.u8()
				if len(live) == 0 {
					continue
				}
				mut.remove = []int{idx % len(live)}
			case 2:
				mut.add = []sensor.Camera{d.camera(side)}
			case 3:
				m.ForceRebuild()
				continue
			}
			live = applyOracleOn(torus, live, mut)
			applyIndex(t, m, mut)
		}
		points := make([]geom.Vec, 1+d.u8()%8)
		for i := range points {
			points[i] = d.point(side, live)
		}

		liveNet, err := sensor.NewNetwork(torus, live)
		if err != nil {
			t.Fatal(err)
		}
		var sc BatchScratch
		for _, src := range []struct {
			name string
			src  batchSource
		}{{"index", NewIndex(liveNet)}, {"view", m.Snapshot()}} {
			if got := src.src.Len(); got != len(live) {
				t.Fatalf("%s: Len = %d, live list has %d", src.name, got, len(live))
			}
			rows := make([][]float64, len(points))
			for i, p := range points {
				w := torus.Wrap(p)
				var want []float64
				for _, c := range live {
					if c.Covers(torus, w) {
						want = append(want, c.ViewedDirection(torus, w))
					}
				}
				rows[i] = src.src.AppendViewedDirections(nil, p)
				if !sameBitsMultiset(rows[i], want) {
					t.Fatalf("%s point %v: directions %v, brute force %v", src.name, p, rows[i], want)
				}
				if got := src.src.CountCovering(p); got != len(want) {
					t.Fatalf("%s point %v: CountCovering = %d, brute force %d", src.name, p, got, len(want))
				}
			}
			dirs, offs := src.src.AppendViewedDirectionsBatch(&sc, points)
			for i, row := range rows {
				got := dirs[offs[i]:offs[i+1]]
				if !slices.EqualFunc(got, row, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("%s point %v: batch row %v, point path %v", src.name, points[i], got, row)
				}
			}
		}
	})
}

// applyOracleOn is applyOracle on an arbitrary torus: added cameras
// wrap into torus rather than the unit square.
func applyOracleOn(torus geom.Torus, cams []sensor.Camera, mut oracleMutation) []sensor.Camera {
	adds := mut.add
	mut.add = nil
	cams = applyOracle(cams, mut)
	for _, c := range adds {
		c.Pos = torus.Wrap(c.Pos)
		c.Orient = geom.NormalizeAngle(c.Orient)
		cams = append(cams, c)
	}
	return cams
}

// sameBitsMultiset reports whether a and b hold the same float64 bit
// patterns with the same multiplicities.
func sameBitsMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	bits := func(s []float64) []uint64 {
		out := make([]uint64, len(s))
		for i, v := range s {
			out[i] = math.Float64bits(v)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bits(a), bits(b))
}
