package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vmath"
)

// The quantizer's pinned arithmetic, as codec v2 shipped it: a divide
// and math.Round a coordinate on encode, a divide by the step count on
// decode. codec2.go evaluates the same functions without either; these
// are what it must equal, bit for bit.

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
	return uint16(math.Round(t * quantSteps))
}

func refDequant(q uint16, lo, hi float32) float32 {
	span := float64(hi) - float64(lo)
	if span <= 0 {
		return lo
	}
	return float32(float64(lo) + float64(q)/quantSteps*span)
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
			checkRound(rng.Float64() * quantSteps)
		} else { // small magnitudes: every binade below 1 gets its share
			checkRound(math.Ldexp(rng.Float64(), -rng.Intn(64)))
		}
	}

	special := []float32{0, negZero, 1, -1, 3, 0.5, 1e30, -1e30, math.MaxFloat32, math.SmallestNonzeroFloat32, inf32, -inf32, nan32}
	for _, box := range quantBoxes(rng, 64) {
		for _, v := range special {
			checkQuantAgrees(t, v, box[0], box[1], uint16(rng.Uint32()))
		}
		for i := 0; i < 64; i++ {
			checkQuantAgrees(t, math.Float32frombits(rng.Uint32()), box[0], box[1], uint16(rng.Uint32()))
		}
	}
	// Raw bit patterns mostly clamp; points drawn inside ordinary boxes
	// are the ones that reach the rounding.
	for trial := 0; trial < 200; trial++ {
		q := randBox(rng)
		for i := 0; i < 500; i++ {
			p := inBoxPoint(rng, q)
			checkQuantAgrees(t, p.X, q.Min.X, q.Max.X, uint16(rng.Uint32()))
			checkQuantAgrees(t, p.Y, q.Min.Y, q.Max.Y, uint16(rng.Uint32()))
			checkQuantAgrees(t, p.Z, q.Min.Z, q.Max.Z, uint16(rng.Uint32()))
		}
	}
}

// TestDequantTableBitIdentical pins the decode: every 16-bit value
// against every box, the table's product against the divide's.
func TestDequantTableBitIdentical(t *testing.T) {
	for _, box := range quantBoxes(rand.New(rand.NewSource(24)), 32) {
		lo, hi := box[0], box[1]
		_, a, _ := Quantizer{Min: vmath.V3(lo, lo, lo), Max: vmath.V3(hi, hi, hi)}.axes()
		unit := units()
		for n := 0; n <= quantSteps; n++ {
			if got, want := a.dequant(unit, uint16(n)), refDequant(uint16(n), lo, hi); !sameFloat32(got, want) {
				t.Fatalf("dequant(%d) in [%x, %x] = %x, reference %x",
					n, math.Float32bits(lo), math.Float32bits(hi), math.Float32bits(got), math.Float32bits(want))
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

func BenchmarkPutQuantPoints(b *testing.B) {
	lines := benchLines(benchQuantizer, 256)
	dst := make([]byte, 46*QuantBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			PutQuantPoints(dst, line, benchQuantizer)
		}
	}
	reportPerPoint(b, 256*46)
}

func BenchmarkDecodeLineV2(b *testing.B) {
	seg := AppendGeomV2(nil, Geometry{Rake: 1, Lines: benchLines(benchQuantizer, 256)}, benchQuantizer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := decodeGeomV2(seg, 1, benchQuantizer, maxPoints); err != nil || n != 256*46 {
			b.Fatal(n, err)
		}
	}
	reportPerPoint(b, 256*46)
}
