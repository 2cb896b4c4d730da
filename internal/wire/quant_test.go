package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vmath"
)

// The quantizer's pinned arithmetic, as codec v2 shipped it: a divide
// and math.Round a coordinate on encode, a divide by the step count on
// decode. codec2.go evaluates the same functions without either; these
// are what it must equal, bit for bit. Each product is rounded by an
// explicit float64 conversion before its add, as in codec2.go, so no
// GOARCH fuses them.

func refQuant(v, lo, hi float32) uint16 {
	span := float64(hi) - float64(lo)
	if span <= 0 {
		return 0
	}
	t := (float64(v) - float64(lo)) / span
	if !(t > 0) { // NaN quantizes to 0, as ±Inf clamp
		return 0
	}
	if t >= 1 {
		return quantSteps
	}
	return uint16(math.Round(float64(t * quantSteps)))
}

func refDequant(q uint16, lo, hi float32) float32 {
	span := float64(hi) - float64(lo)
	if span <= 0 {
		return lo
	}
	return float32(float64(lo) + float64(float64(q)/quantSteps*span))
}

var (
	negZero = float32(math.Copysign(0, -1))
	inf32   = float32(math.Inf(1))
	nan32   = float32(math.NaN())
)

// quantBoxes returns (lo, hi) pairs for one axis: ordinary, flat,
// inverted, signed-zero, 1e30-wide and non-finite boxes, then seeded
// raw bit patterns.
func quantBoxes(rng *rand.Rand, random int) [][2]float32 {
	boxes := [][2]float32{
		{0, 10}, {-4, 12}, {2, 2.5}, {-3.25, 17.75}, {1e-3, 1.001e-3},
		{3, 3}, {-2, -2}, {0, 0}, {negZero, negZero}, {negZero, 0}, {0, negZero},
		{5, 1}, {negZero, -1}, {1e30, -1e30},
		{negZero, 1}, {-1, negZero}, {-1e30, 1e30}, {0, 1e30}, {-math.MaxFloat32, math.MaxFloat32},
		{-inf32, inf32}, {0, inf32}, {-inf32, 0}, {inf32, inf32}, {inf32, -inf32},
		{nan32, 1}, {0, nan32}, {nan32, nan32},
	}
	for i := 0; i < random; i++ {
		boxes = append(boxes, [2]float32{math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32())})
	}
	return boxes
}

// sameFloat32 compares by bit pattern, so the sign of zero counts. Two
// NaNs are equal whatever their payloads: which operand's payload an
// add of two NaNs keeps is the instruction's choice, not the codec's.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkQuantAgrees holds every entry point to the reference for one
// coordinate against one box, in both directions.
func checkQuantAgrees(t *testing.T, v, lo, hi float32, raw uint16) {
	t.Helper()
	q := Quantizer{Min: vmath.V3(lo, lo, lo), Max: vmath.V3(hi, hi, hi)}
	want := refQuant(v, lo, hi)
	if x, y, z := q.quant(vmath.V3(v, v, v)); x != want || y != want || z != want {
		t.Fatalf("Quant(%x) in [%x, %x] = %d %d %d, reference %d",
			math.Float32bits(v), math.Float32bits(lo), math.Float32bits(hi), x, y, z, want)
	}
	var rec [QuantBytes]byte
	PutQuantPoints(rec[:], []vmath.Vec3{vmath.V3(v, v, v)}, q)
	for i := 0; i < QuantBytes; i += 2 {
		if got := binary.LittleEndian.Uint16(rec[i:]); got != want {
			t.Fatalf("PutQuantPoints(%x) in [%x, %x] wrote %d at byte %d, reference %d",
				math.Float32bits(v), math.Float32bits(lo), math.Float32bits(hi), got, i, want)
		}
	}
	for _, n := range [2]uint16{want, raw} {
		back, p := refDequant(n, lo, hi), q.dequant(n, n, n)
		if !sameFloat32(p.X, back) || !sameFloat32(p.Y, back) || !sameFloat32(p.Z, back) {
			t.Fatalf("Dequant(%d) in [%x, %x] = %x %x %x, reference %x",
				n, math.Float32bits(lo), math.Float32bits(hi),
				math.Float32bits(p.X), math.Float32bits(p.Y), math.Float32bits(p.Z), math.Float32bits(back))
		}
	}
}

// boxAxis is axis i (0 x, 1 y, 2 z) of q's box.
func boxAxis(q Quantizer, i int) (lo, hi float32) {
	switch i {
	case 0:
		return q.Min.X, q.Max.X
	case 1:
		return q.Min.Y, q.Max.Y
	}
	return q.Min.Z, q.Max.Z
}

// checkSliceAgrees holds the slice paths to the per-coordinate
// reference: pts through PutQuantPoints, then the records it wrote and
// raw, one 16-bit value per coordinate, through a decoder. On amd64
// every point but an odd last one goes through the vector lanes.
func checkSliceAgrees(t *testing.T, pts []vmath.Vec3, q Quantizer, raw []uint16) {
	t.Helper()
	seg, first := BeginToolGeomV2(nil, ToolKindIso, len(pts))
	PutQuantPoints(seg[first:], pts, q)
	for i, p := range pts {
		for a, v := range [3]float32{p.X, p.Y, p.Z} {
			lo, hi := boxAxis(q, a)
			if got, want := binary.LittleEndian.Uint16(seg[first+i*QuantBytes+2*a:]), refQuant(v, lo, hi); got != want {
				t.Fatalf("PutQuantPoints: point %d of %d, axis %d: %x in [%x, %x] wrote %d, reference %d",
					i, len(pts), a, math.Float32bits(v), math.Float32bits(lo), math.Float32bits(hi), got, want)
			}
		}
	}
	rawSeg, _ := BeginToolGeomV2(nil, ToolKindIso, len(pts)) // the same header: records from first
	for i, n := range raw {
		binary.LittleEndian.PutUint16(rawSeg[first+2*i:], n)
	}
	for _, s := range [2][]byte{seg, rawSeg} {
		g, n, err := decodeToolGeomV2(s, q, maxPoints)
		if err != nil || n != len(pts) {
			t.Fatalf("decoding %d points: %d, %v", len(pts), n, err)
		}
		for i, p := range g.Points {
			for a, got := range [3]float32{p.X, p.Y, p.Z} {
				lo, hi := boxAxis(q, a)
				rec := binary.LittleEndian.Uint16(s[first+i*QuantBytes+2*a:])
				if want := refDequant(rec, lo, hi); !sameFloat32(got, want) {
					t.Fatalf("decoder: point %d of %d, axis %d: %d in [%x, %x] = %x, reference %x",
						i, len(pts), a, rec, math.Float32bits(lo), math.Float32bits(hi), math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}

// slicePoints makes points of consecutive triples of vals, dropping a
// remainder, and draws one raw 16-bit value per coordinate.
func slicePoints(rng *rand.Rand, vals []float32) ([]vmath.Vec3, []uint16) {
	pts := make([]vmath.Vec3, len(vals)/3)
	raw := make([]uint16, 3*len(pts))
	for i := range pts {
		pts[i] = vmath.V3(vals[3*i], vals[3*i+1], vals[3*i+2])
	}
	for i := range raw {
		raw[i] = uint16(rng.Uint32())
	}
	return pts, raw
}

// TestQuantMatchesReference pins the encode: the guarded y+0.5 against
// math.Round wherever they could part — every integer and half-integer
// a scaled coordinate can reach, and a few ulps either side — and then
// whole coordinates against whole boxes through every entry point.
func TestQuantMatchesReference(t *testing.T) {
	checkRound := func(y float64) {
		if y < 0 || y >= quantSteps+0.5 {
			return // outside roundSteps' domain
		}
		if got, want := roundSteps(y), uint16(math.Round(y)); got != want {
			t.Fatalf("roundSteps(%v = %x) = %d, math.Round gives %d", y, math.Float64bits(y), got, want)
		}
	}
	for k := 0; k <= quantSteps; k++ {
		for _, y := range [2]float64{float64(k), float64(k) + 0.5} {
			below, above := y, y
			for ulp := 0; ulp <= 4; ulp++ {
				checkRound(below)
				checkRound(above)
				below, above = math.Nextafter(below, math.Inf(-1)), math.Nextafter(above, math.Inf(1))
			}
		}
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 1_000_000; i++ {
		if i%2 == 0 {
			checkRound(float64(rng.Float64() * quantSteps))
		} else { // small magnitudes: every binade below 1 gets its share
			checkRound(math.Ldexp(rng.Float64(), -rng.Intn(64)))
		}
	}

	special := []float32{0, negZero, 1, -1, 3, 0.5, 1e30, -1e30, math.MaxFloat32, math.SmallestNonzeroFloat32, inf32, -inf32, nan32}
	boxes := quantBoxes(rng, 64)
	for b, box := range boxes {
		var vals []float32
		for _, v := range special {
			vals = append(vals, v)
			checkQuantAgrees(t, v, box[0], box[1], uint16(rng.Uint32()))
		}
		for i := 0; i < 64; i++ {
			v := math.Float32frombits(rng.Uint32())
			vals = append(vals, v)
			checkQuantAgrees(t, v, box[0], box[1], uint16(rng.Uint32()))
		}
		// The same values as points, this box on x and its successors
		// on y and z, so each lane pair meets three kinds of box; a
		// slice of every length to 9 ends on each tail.
		y, z := boxes[(b+1)%len(boxes)], boxes[(b+2)%len(boxes)]
		q := Quantizer{Min: vmath.V3(box[0], y[0], z[0]), Max: vmath.V3(box[1], y[1], z[1])}
		pts, raw := slicePoints(rng, vals)
		checkSliceAgrees(t, pts, q, raw)
		for n := 0; n <= 9; n++ {
			checkSliceAgrees(t, pts[n:2*n], q, raw[3*n:6*n])
		}
	}
	// Raw bit patterns mostly clamp; points drawn inside ordinary boxes
	// are the ones that reach the rounding.
	for trial := 0; trial < 200; trial++ {
		q := randBox(rng)
		pts, raw := make([]vmath.Vec3, 500+trial%2), make([]uint16, 3*(500+trial%2))
		for i := range pts {
			pts[i] = inBoxPoint(rng, q)
			checkQuantAgrees(t, pts[i].X, q.Min.X, q.Max.X, uint16(rng.Uint32()))
			checkQuantAgrees(t, pts[i].Y, q.Min.Y, q.Max.Y, uint16(rng.Uint32()))
			checkQuantAgrees(t, pts[i].Z, q.Min.Z, q.Max.Z, uint16(rng.Uint32()))
		}
		for i := range raw {
			raw[i] = uint16(rng.Uint32())
		}
		checkSliceAgrees(t, pts, q, raw)
	}
}

// TestDequantBitIdentical pins the decode: every 16-bit value on every
// axis, against every box, through the decoder's point loop (the
// vector lanes on amd64) and through the scalar axis.dequant, against
// the reference's divide. Box i is on x, i+1 on y and i+2 on z.
func TestDequantBitIdentical(t *testing.T) {
	boxes := quantBoxes(rand.New(rand.NewSource(24)), 32)
	src := make([]byte, (quantSteps+1)*QuantBytes)
	for n := 0; n <= quantSteps; n++ {
		binary.LittleEndian.PutUint16(src[n*QuantBytes:], uint16(n))
		binary.LittleEndian.PutUint16(src[n*QuantBytes+2:], uint16(n+21845))
		binary.LittleEndian.PutUint16(src[n*QuantBytes+4:], uint16(n+43690))
	}
	pts := make([]vmath.Vec3, quantSteps+1)
	for b := range boxes {
		x, y, z := boxes[b], boxes[(b+1)%len(boxes)], boxes[(b+2)%len(boxes)]
		q := Quantizer{Min: vmath.V3(x[0], y[0], z[0]), Max: vmath.V3(x[1], y[1], z[1])}
		ax, ay, az := q.axes()
		dequantPoints(pts, src, q)
		for i, p := range pts {
			for a, got := range [3]float32{p.X, p.Y, p.Z} {
				lo, hi := boxAxis(q, a)
				n := binary.LittleEndian.Uint16(src[i*QuantBytes+2*a:])
				want := refDequant(n, lo, hi)
				scalar := [3]axis{ax, ay, az}[a].dequant(n)
				if !sameFloat32(got, want) || !sameFloat32(scalar, want) {
					t.Fatalf("dequant(%d) on axis %d in [%x, %x] = %x, scalar %x, reference %x",
						n, a, math.Float32bits(lo), math.Float32bits(hi),
						math.Float32bits(got), math.Float32bits(scalar), math.Float32bits(want))
				}
			}
		}
	}
}

// TestQuantNaNAndFlatAxes spells out the two corners the reference
// leaves to a careful reading: NaN quantizes to 0, and a flat axis
// decodes to its minimum with the minimum's sign of zero.
func TestQuantNaNAndFlatAxes(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, negZero, 5), Max: vmath.V3(10, negZero, 1)}
	if x, y, z := q.quant(vmath.V3(nan32, nan32, nan32)); x != 0 || y != 0 || z != 0 {
		t.Errorf("Quant(NaN) = %d %d %d, want zeros", x, y, z)
	}
	if x, y, z := q.quant(vmath.V3(inf32, 3, -3)); x != quantSteps || y != 0 || z != 0 {
		t.Errorf("Quant(+Inf, flat, inverted) = %d %d %d, want %d 0 0", x, y, z, quantSteps)
	}
	p := q.dequant(0, 12345, 54321)
	if math.Float32bits(p.Y) != math.Float32bits(negZero) || p.Z != 5 {
		t.Errorf("Dequant on flat -0 / inverted axes = %v (Y bits %x), want -0 and 5", p, math.Float32bits(p.Y))
	}
}

// FuzzQuantAgrees: raw float32 bits for a coordinate and a box, and a
// raw 16-bit value; codec2.go's arithmetic equals the reference's in
// both directions.
func FuzzQuantAgrees(f *testing.F) {
	f.Add(math.Float32bits(3), math.Float32bits(0), math.Float32bits(10), uint16(1))
	f.Add(math.Float32bits(nan32), math.Float32bits(0), math.Float32bits(10), uint16(quantSteps))
	f.Add(math.Float32bits(1), math.Float32bits(negZero), math.Float32bits(negZero), uint16(7))
	f.Add(math.Float32bits(-1e30), math.Float32bits(-1e30), math.Float32bits(1e30), uint16(32768))
	f.Add(math.Float32bits(inf32), math.Float32bits(5), math.Float32bits(1), uint16(0))
	f.Fuzz(func(t *testing.T, v, lo, hi uint32, raw uint16) {
		checkQuantAgrees(t, math.Float32frombits(v), math.Float32frombits(lo), math.Float32frombits(hi), raw)
	})
}

// FuzzQuantPointsAgrees: a box of raw float32 bits and 0–9 points of
// raw bits, whose first six bytes each are also a raw record, through
// PutQuantPoints and a decoder against the per-coordinate reference in
// both directions. Nine points end on every tail of the lanes.
func FuzzQuantPointsAgrees(f *testing.F) {
	seed := func(vals ...float32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		f.Add(b)
	}
	seed(0, negZero, 5, 10, negZero, 1, 3, 0, nan32)
	seed(-1e30, 2, 2, 1e30, 2, -1, inf32, 7, 1.5, 0.25, -inf32, 100, 5, 2, 0.5)
	seed(nan32, 0, -4, 1, inf32, 12, 0.5, 0.5, 0.5, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 24 {
			return
		}
		vals := make([]float32, len(b)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		q := Quantizer{Min: vmath.V3(vals[0], vals[1], vals[2]), Max: vmath.V3(vals[3], vals[4], vals[5])}
		pts := make([]vmath.Vec3, min(9, (len(vals)-6)/3))
		raw := make([]uint16, 3*len(pts))
		for i := range pts {
			pts[i] = vmath.V3(vals[6+3*i], vals[7+3*i], vals[8+3*i])
			for a := range 3 {
				raw[3*i+a] = binary.LittleEndian.Uint16(b[24+12*i+2*a:])
			}
		}
		checkSliceAgrees(t, pts, q, raw)
	})
}

// --- ns/point ---------------------------------------------------------

// benchLines returns n smooth 46-point lines inside q's box — heavy's
// median streamline — so neighbouring points land on neighbouring
// table entries as a rake's do.
func benchLines(q Quantizer, n int) [][]vmath.Vec3 {
	rng := rand.New(rand.NewSource(1))
	lines := make([][]vmath.Vec3, n)
	for l := range lines {
		p := inBoxPoint(rng, q)
		lines[l] = make([]vmath.Vec3, 46)
		for i := range lines[l] {
			lines[l][i] = p
			p = p.Add(vmath.V3(0.05, float32(rng.NormFloat64())*0.01, float32(rng.NormFloat64())*0.01))
		}
	}
	return lines
}

var benchQuantizer = Quantizer{Min: vmath.V3(-4, 0, 2), Max: vmath.V3(12, 10, 8)}

func reportPerPoint(b *testing.B, points int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
}

// quantKernels are the point loops BenchmarkPutQuantPoints and
// BenchmarkDecodeLineV2 time: the paths the codec takes (the SSE2
// lanes on amd64) and the portable loops over the scalar axis code.
var quantKernels = []struct {
	name    string
	quant   func(dst []byte, pts []vmath.Vec3, q Quantizer)
	dequant func(pts []vmath.Vec3, src []byte, q Quantizer)
}{
	{"vector", PutQuantPoints, dequantPoints},
	{"portable", func(dst []byte, pts []vmath.Vec3, q Quantizer) {
		ax, ay, az := q.axes()
		quantPointsGo(dst, pts, ax, ay, az)
	}, func(pts []vmath.Vec3, src []byte, q Quantizer) {
		ax, ay, az := q.axes()
		dequantPointsGo(pts, src, ax, ay, az)
	}},
}

func BenchmarkPutQuantPoints(b *testing.B) {
	lines := benchLines(benchQuantizer, 256)
	dst := make([]byte, 46*QuantBytes)
	for _, k := range quantKernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, line := range lines {
					k.quant(dst, line, benchQuantizer)
				}
			}
			reportPerPoint(b, 256*46)
		})
	}
}

// BenchmarkDecodeLineV2 decodes a 256-line rake segment as
// decodeGeomV2 does, one allocation a line, with each kernel; the
// vector decode is checked against decodeGeomV2's first.
func BenchmarkDecodeLineV2(b *testing.B) {
	seg := AppendGeomV2(nil, Geometry{Rake: 1, Lines: benchLines(benchQuantizer, 256)}, benchQuantizer)
	decode := func(dequant func([]vmath.Vec3, []byte, Quantizer)) [][]vmath.Vec3 {
		d := decoder{buf: seg}
		d.u8()
		lines := make([][]vmath.Vec3, d.uvarintCount(maxEntities, 1))
		for l := range lines {
			n := d.uvarintCount(maxPoints, QuantBytes)
			lines[l] = make([]vmath.Vec3, n)
			dequant(lines[l], d.take(n*QuantBytes), benchQuantizer)
		}
		if d.err != nil || len(d.buf) != 0 {
			b.Fatal(d.err, len(d.buf))
		}
		return lines
	}
	want, _, err := decodeGeomV2(seg, 1, benchQuantizer, maxPoints)
	if err != nil || !reflect.DeepEqual(decode(dequantPoints), want.Lines) {
		b.Fatal("the benchmark's decode is not decodeGeomV2's", err)
	}
	for _, k := range quantKernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				decode(k.dequant)
			}
			reportPerPoint(b, 256*46)
		})
	}
}
