package grid

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/vmath"
)

// Node values and coordinates for TestInterp3x4MatchesInterp3, as
// float32 bits.
var (
	// nanBits are NaNs of several payloads, a signaling one among them.
	nanBits = []uint32{0x7fc00000, 0xffc00000, 0x7fc12345, 0xff812345, 0x7f800001}
	// signedTiny are signed zeros and subnormals.
	signedTiny = []uint32{0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x00400000}
	// overflowing are values whose differences overflow: ±Inf and
	// ±MaxFloat32. Inf−Inf and 0·Inf make the hardware's default NaN.
	overflowing = []uint32{0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff}
)

// hostileArray is n node values: two thirds ordinary, one third drawn
// from special.
func hostileArray(rng *rand.Rand, n int, special []uint32) []float32 {
	a := make([]float32, n)
	for i := range a {
		if rng.Intn(3) == 0 {
			a[i] = math.Float32frombits(special[rng.Intn(len(special))])
		} else {
			a[i] = float32(rng.NormFloat64() * 10)
		}
	}
	return a
}

// hostileCoord is a grid coordinate along an axis of n nodes: inside,
// on a node, on the high boundary, −0, ±Inf, outside, or one of nans.
func hostileCoord(rng *rand.Rand, n int, nans []uint32) float32 {
	switch rng.Intn(8) {
	case 0:
		return float32(n - 1) // high boundary: last cell, fraction 1
	case 1:
		if len(nans) > 0 { // cell 0, NaN fraction
			return math.Float32frombits(nans[rng.Intn(len(nans))])
		}
		return 0
	case 2:
		return math.Float32frombits(0x80000000) // −0
	case 3:
		return float32(math.Inf(2*rng.Intn(2) - 1))
	case 4:
		return float32(rng.Intn(n)) // a node
	default:
		return float32(rng.Float64()*float64(n+1) - 1)
	}
}

// TestInterp3x4MatchesInterp3 holds Locate4 to Locate, and Interp3x4
// and interp3x4Go to Interp3, lane by lane by Float32bits. Where two
// different NaNs meet in one add or multiply, which one Go's Interp3
// returns is the compiler's choice of operand order (a -race build
// chooses differently), so the bit-exact trials give every NaN an
// operation can see one pattern: one NaN payload and nothing that
// overflows, or infinities and no NaN input, whose NaNs are all the
// hardware's default. Trials mixing every kind check the NaN results
// for NaN and every other result bit for bit.
func TestInterp3x4MatchesInterp3(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := range 3000 {
		var special, nans []uint32
		exactNaN := true
		switch trial % 3 {
		case 0: // one NaN payload
			i := trial / 3 % len(nanBits)
			nans = nanBits[i : i+1 : i+1]
			special = append(nans, signedTiny...)
		case 1: // infinities
			special = append(overflowing, signedTiny...)
		default: // everything
			nans, exactNaN = nanBits, false
			special = append(append(append([]uint32(nil), nanBits...), signedTiny...), overflowing...)
		}
		g, _ := New(2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5))
		n := g.NumNodes()
		u, v, w := hostileArray(rng, n, special), hostileArray(rng, n, special), hostileArray(rng, n, special)
		var pos [4]vmath.Vec3
		for l := range pos {
			pos[l] = vmath.Vec3{X: hostileCoord(rng, g.NI, nans), Y: hostileCoord(rng, g.NJ, nans), Z: hostileCoord(rng, g.NK, nans)}
		}
		if trial%4 == 0 { // lanes sharing one cell
			pos[1], pos[3] = pos[0], pos[2]
		}
		var c Cells4
		g.Locate4(&pos, &c)
		var got, ref [3][4]float32
		Interp3x4(u, v, w, &c, &got)
		interp3x4Go(u, v, w, &c, &ref)
		same := func(a, b float32) bool {
			if !exactNaN && a != a {
				return b != b
			}
			return math.Float32bits(a) == math.Float32bits(b)
		}
		for l := range pos {
			cell := g.Locate(pos[l])
			if c.base[l] != cell.Base || math.Float32bits(c.fx[l]) != math.Float32bits(cell.FX) ||
				math.Float32bits(c.fy[l]) != math.Float32bits(cell.FY) || math.Float32bits(c.fz[l]) != math.Float32bits(cell.FZ) {
				t.Fatalf("trial %d lane %d: Locate4 = %d %v %v %v, Locate = %+v", trial, l, c.base[l], c.fx[l], c.fy[l], c.fz[l], cell)
			}
			x, y, z := g.Interp3(u, v, w, cell)
			want := [3]float32{x, y, z}
			for k := range want {
				if !same(got[k][l], want[k]) || !same(ref[k][l], want[k]) {
					t.Fatalf("trial %d lane %d component %d at %v: Interp3x4 %#08x, reference %#08x, Interp3 %#08x",
						trial, l, k, pos[l], math.Float32bits(got[k][l]), math.Float32bits(ref[k][l]), math.Float32bits(want[k]))
				}
			}
		}
	}

	// An array shorter than the grid's NumNodes is an index-out-of-range
	// panic, as in Interp3, even when no lane's stencil reaches its end.
	g, _ := New(3, 3, 3)
	n := g.NumNodes()
	full, short := make([]float32, n), make([]float32, n-1)
	var pos [4]vmath.Vec3 // every lane in cell 0
	var c Cells4
	g.Locate4(&pos, &c)
	for _, arrays := range [][3][]float32{{short, full, full}, {full, short, full}, {full, full, short}} {
		var out [3][4]float32
		if err := panicOf(func() { Interp3x4(arrays[0], arrays[1], arrays[2], &c, &out) }); err == nil {
			t.Errorf("Interp3x4 with lengths %d %d %d did not panic", len(arrays[0]), len(arrays[1]), len(arrays[2]))
		}
	}
	if err := panicOf(func() { g.Interp3(short, full, full, g.Locate(vmath.V3(2, 2, 2))) }); err == nil {
		t.Error("Interp3 with a short array did not panic")
	}
	var zero Cells4 // not built by Locate4: no array is long enough
	if err := panicOf(func() { Interp3x4(full, full, full, &zero, new([3][4]float32)) }); err == nil {
		t.Error("Interp3x4 with a zero Cells4 did not panic")
	}
}

// panicOf runs f and returns the runtime error it panicked with.
func panicOf(f func()) (err runtime.Error) {
	defer func() { err, _ = recover().(runtime.Error) }()
	f()
	return nil
}

func BenchmarkInterp3x4(b *testing.B) {
	g, _ := NewStretchedBox(40, 30, 20, unitBox(), 1.3)
	rng := rand.New(rand.NewSource(1))
	var pos [4]vmath.Vec3
	for l := range pos {
		pos[l] = vmath.V3(rng.Float32()*39, rng.Float32()*29, rng.Float32()*19)
	}
	var c Cells4
	var out [3][4]float32
	b.Run("vector", func(b *testing.B) {
		for range b.N {
			g.Locate4(&pos, &c)
			Interp3x4(g.X, g.Y, g.Z, &c, &out)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for range b.N {
			for l := range pos {
				out[0][l], out[1][l], out[2][l] = g.Interp3(g.X, g.Y, g.Z, g.Locate(pos[l]))
			}
		}
	})
}
