package render

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/vmath"
)

// Float32 bit patterns the transform must carry through every
// operation exactly as the scalar code does.
var transformSpecials = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xff812345, 0x7f800001, // NaNs, a signalling one among them
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff, // ±Inf, ±MaxFloat32
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x00400000, // ±0, subnormals
	0x3f800000, 0xbf800000, // ±1
}

// hostileFloat is a raw bit pattern, a special or an ordinary number.
func hostileFloat(rng *rand.Rand) float32 {
	switch rng.Intn(4) {
	case 0:
		return math.Float32frombits(rng.Uint32())
	case 1:
		return math.Float32frombits(transformSpecials[rng.Intn(len(transformSpecials))])
	default:
		return float32(rng.NormFloat64() * 10)
	}
}

// vertBits is a vertex's six fields as float32 bits.
func vertBits(v vert) [6]uint32 {
	return [6]uint32{math.Float32bits(v.ndc.X), math.Float32bits(v.ndc.Y), math.Float32bits(v.ndc.Z),
		math.Float32bits(v.w), math.Float32bits(v.sx), math.Float32bits(v.sy)}
}

// x86Transform is the scalar loop with every operation's operand order
// written out as a plain or -race build of Mat4.TransformPointW and
// viewport.divide takes it, and with x86's rule for two NaNs applied by
// hand. Where both operands of an add, multiply or divide are NaN, the
// hardware returns the first source's payload, so which payload
// survives is the compiler's choice of order. A build that instruments
// the code (go test -fuzz, -cover) chooses otherwise for some of them;
// this model leaves nothing to choose, so it pins NaN payloads in any
// build. x, y and z are ((m1·Y + m0·X) + m2·Z) + m3, w is
// ((m12·X + m13·Y) + m14·Z) + m15, every product matrix-first.
func x86Transform(m *vmath.Mat4, vp viewport, p vmath.Vec3) vert {
	row := func(m0, m1, m2, m3 float32) float32 {
		return x86Add(x86Add(x86Mul(m2, p.Z), x86Add(x86Mul(m1, p.Y), x86Mul(m0, p.X))), m3)
	}
	x, y, z := row(m[0], m[1], m[2], m[3]), row(m[4], m[5], m[6], m[7]), row(m[8], m[9], m[10], m[11])
	w := x86Add(x86Add(x86Add(x86Mul(m[12], p.X), x86Mul(m[13], p.Y)), x86Mul(m[14], p.Z)), m[15])
	x, y, z = x86First(x/w, x, w), x86First(y/w, y, w), x86First(z/w, z, w)
	return vert{ndc: vmath.V3(x, y, z), w: w, sx: x86Mul((x+1)/2, vp.w), sy: x86Mul((1-y)/2, vp.h)}
}

// x86First is r, the result of an operation whose first source is a,
// or a's payload quieted where a and b are both NaN.
func x86First(r, a, b float32) float32 {
	if a != a && b != b {
		return math.Float32frombits(math.Float32bits(a) | 1<<22)
	}
	return r
}

func x86Mul(a, b float32) float32 { return x86First(a*b, a, b) }
func x86Add(a, b float32) float32 { return x86First(a+b, a, b) }

// instrumented reports whether this test binary was built to fuzz or
// to measure coverage, whose instrumentation moves the compiler's
// operand orders off x86Transform's.
func instrumented() bool {
	fuzz := flag.Lookup("test.fuzz")
	return testing.CoverMode() != "" || (fuzz != nil && fuzz.Value.String() != "")
}

// checkTransform holds transformVerts, on one input, to the Go loop by
// the bits of every field — NaN payloads too, unless the build is
// instrumented — and on amd64 to x86Transform by every bit in every
// build. It also checks that no vertex past len(pts) is written.
func checkTransform(t *testing.T, what string, m *vmath.Mat4, vp viewport, pts []vmath.Vec3) {
	t.Helper()
	sentinel := math.Float32frombits(0x7fbadbad)
	got, loop := make([]vert, len(pts)+2), make([]vert, len(pts)+2)
	for j := range got {
		got[j] = vert{vmath.V3(sentinel, sentinel, sentinel), sentinel, sentinel, sentinel}
		loop[j] = got[j]
	}
	transformVerts(m, vp, pts, got)
	transformVertsGo(m, vp, pts, loop)
	payloads := !instrumented()
	for j := range loop {
		g, l := vertBits(got[j]), vertBits(loop[j])
		for k := range g {
			gf, lf := math.Float32frombits(g[k]), math.Float32frombits(l[k])
			if g[k] != l[k] && (payloads || gf == gf || lf == lf) {
				t.Fatalf("%s: vertex %d of %d: transformVerts %#08x, Go loop %#08x", what, j, len(pts), g, l)
			}
		}
		if runtime.GOARCH == "amd64" && j < len(pts) {
			if x := vertBits(x86Transform(m, vp, pts[j])); g != x {
				t.Fatalf("%s: vertex %d of %d: transformVerts %#08x, x86Transform %#08x", what, j, len(pts), g, x)
			}
		}
	}
}

// TestTransformMatchesScalar holds transformVerts to the scalar loop,
// vp.divide(m.TransformPointW(p)), by the bits of all six vert fields,
// NaN payloads included (see checkTransform): on a camera matrix over
// scene points and over points at and just off the eye's plane (w = 0
// and 0 < |w| < nearEps), and on matrices, viewports and points drawn
// from raw bit patterns, ±Inf, ±0 and subnormals, each at every length
// from 0 to 9.
func TestTransformMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	view := vmath.LookAt(vmath.V3(-6, 14, 24), vmath.V3(4, 0, 8), vmath.V3(0, 1, 0))
	camera := vmath.Perspective(1.5, 640.0/512, 0.05, 500).Mul(view)
	head, _ := view.Inverted()
	screen := viewport{639, 511}
	for trial := range 20000 {
		n := trial / 4 % 10
		pts := make([]vmath.Vec3, n)
		m, vp := camera, screen
		switch trial % 4 {
		case 0: // a finite scene
			for j := range pts {
				pts[j] = vmath.V3(rng.Float32()*30-10, rng.Float32()*10-5, rng.Float32()*30-10)
			}
		case 1: // w exactly 0 or just in front of the eye, under the camera
			for j := range pts {
				// The camera's w is the point's depth along the view
				// axis; put points on the eye's plane and a hair off it.
				d := []float32{0, 1e-6, -1e-6, 5e-6, 1e-5, 2e-5}[rng.Intn(6)]
				pts[j] = head.TransformPoint(vmath.V3(rng.Float32()*4-2, rng.Float32()*4-2, -d))
			}
			if n > 0 {
				pts[0] = vmath.V3(-6, 14, 24) // the eye itself
			}
		default: // everything hostile
			for k := range m {
				m[k] = hostileFloat(rng)
			}
			if trial%8 == 3 { // an affine row, so w is m15 exactly: 0, tiny or special
				m[12], m[13], m[14] = 0, 0, 0
				m[15] = []float32{0, 1e-6, -0.0, 1e-5, math.Float32frombits(0x7fc12345)}[rng.Intn(5)]
			}
			vp = viewport{hostileFloat(rng), hostileFloat(rng)}
			for j := range pts {
				pts[j] = vmath.V3(hostileFloat(rng), hostileFloat(rng), hostileFloat(rng))
			}
		}
		checkTransform(t, fmt.Sprintf("trial %d", trial), &m, vp, pts)
	}

	// out shorter than pts is an index-out-of-range panic before any
	// vertex is written.
	id, pts := vmath.Identity(), make([]vmath.Vec3, 3)
	out := make([]vert, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("transformVerts into a shorter out did not panic")
		}
		if out[:3][2] != (vert{}) {
			t.Error("transformVerts wrote past len(out)")
		}
	}()
	transformVerts(&id, screen, pts, out)
}

// FuzzTransformAgrees is TestTransformMatchesScalar from raw bytes: a
// matrix, a viewport and up to nine points, every float32 a raw bit
// pattern.
func FuzzTransformAgrees(f *testing.F) {
	seed := func(vals ...float32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		f.Add(b)
	}
	id := vmath.Identity()
	seed(append(id[:], 639, 511, 0.5, -0.5, 0.25, 1, 1, 1)...)
	nan := math.Float32frombits(0x7fc12345)
	seed(append(id[:], nan, 511, nan, 0.5, -0.5, 0.25, nan, 1)...)
	persp := vmath.Perspective(1.5, 1.25, 0.05, 500)
	seed(append(persp[:], 639, 511, 0, 0, 0, 1, 2, -3, 0, 0, 1e-6)...)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4*18 {
			return
		}
		next := func() float32 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(b))
			b = b[4:]
			return v
		}
		var m vmath.Mat4
		for k := range m {
			m[k] = next()
		}
		vp := viewport{next(), next()}
		pts := make([]vmath.Vec3, min(len(b)/12, 9))
		for j := range pts {
			pts[j] = vmath.V3(next(), next(), next())
		}
		checkTransform(t, "fuzz", &m, vp, pts)
	})
}
