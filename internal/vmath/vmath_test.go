package vmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVec3Basic(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, 5, 6)
	if got := a.Add(b); got != V3(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V3(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Mul(b); got != V3(4, 10, 18) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Neg(); got != V3(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVec3BitsEqual(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	if !V3(1, nan, negZero).BitsEqual(V3(1, nan, negZero)) {
		t.Error("identical bit patterns (NaN and -0 included) must be BitsEqual")
	}
	if V3(0, 0, 0).BitsEqual(V3(0, 0, negZero)) {
		t.Error("-0 and 0 compare == but are different bits")
	}
	if V3(1, 2, 3).BitsEqual(V3(1, 2, math.Nextafter32(3, 4))) {
		t.Error("one ulp apart must not be BitsEqual")
	}
}

func TestVec3Cross(t *testing.T) {
	x, y, z := V3(1, 0, 0), V3(0, 1, 0), V3(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y cross z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z cross x = %v, want y", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	// Property: v x w is orthogonal to both v and w.
	f := func(ax, ay, az, bx, by, bz float32) bool {
		v := V3(clampf(ax), clampf(ay), clampf(az))
		w := V3(clampf(bx), clampf(by), clampf(bz))
		c := v.Cross(w)
		scale := v.Len() * w.Len()
		tol := 1e-3 * (scale + 1)
		return absf(c.Dot(v)) <= tol && absf(c.Dot(w)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampf keeps quick-generated floats in a sane range so float32
// rounding does not swamp the property tolerances.
func clampf(f float32) float32 {
	if f != f || f > 1e3 || f < -1e3 { // NaN or huge
		return 1
	}
	return f
}

func TestVec3Normalized(t *testing.T) {
	v := V3(3, 4, 0).Normalized()
	if !v.ApproxEqual(V3(0.6, 0.8, 0), 1e-6) {
		t.Errorf("Normalized = %v", v)
	}
	if got := (Vec3{}).Normalized(); got != (Vec3{}) {
		t.Errorf("Normalized zero = %v, want zero", got)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, 20, 30)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V3(5, 10, 15) {
		t.Errorf("Lerp 0.5 = %v", got)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	if V3(inf, 0, 0).IsFinite() || V3(0, nan, 0).IsFinite() {
		t.Error("non-finite vector reported finite")
	}
}

// TestIsFiniteMatchesIsNaNIsInf holds the subtraction test to the
// definition it replaced on every float32 with exponent 0xFF (both
// infinities, every NaN payload of both signs), on ±0, every subnormal,
// ±MaxFloat32, and a strided sweep of all 2^32 bit patterns.
func TestIsFiniteMatchesIsNaNIsInf(t *testing.T) {
	want := func(f float32) bool {
		f64 := float64(f)
		return !math.IsNaN(f64) && !math.IsInf(f64, 0)
	}
	check := func(b uint32) {
		if f := math.Float32frombits(b); isFinite(f) != want(f) {
			t.Fatalf("isFinite(%#08x) = %v, want %v", b, isFinite(f), want(f))
		}
	}
	const mantissa = 1<<23 - 1
	for _, sign := range []uint32{0, 1 << 31} {
		for m := uint32(0); m <= mantissa; m++ {
			check(sign | 0xFF<<23 | m) // exponent 0xFF: Inf and NaNs
			check(sign | m)            // exponent 0: ±0 and subnormals
		}
		check(sign | math.Float32bits(math.MaxFloat32))
	}
	const stride = 4093 // prime: every exponent and sign, many mantissas
	for b := uint64(0); b < 1<<32; b += stride {
		check(uint32(b))
	}
}

func TestAABB(t *testing.T) {
	b := NewAABB(V3(0, 0, 0), V3(2, 3, 4), V3(-1, 1, 1))
	if b.Min != V3(-1, 0, 0) || b.Max != V3(2, 3, 4) {
		t.Fatalf("bounds = %v..%v", b.Min, b.Max)
	}
	if !b.Contains(V3(0, 1, 2)) {
		t.Error("Contains interior point = false")
	}
	if b.Contains(V3(5, 0, 0)) {
		t.Error("Contains exterior point = true")
	}
	if got := b.Clamp(V3(10, -10, 2)); got != V3(2, 0, 2) {
		t.Errorf("Clamp = %v", got)
	}
	if got := b.Center(); !got.ApproxEqual(V3(0.5, 1.5, 2), 1e-6) {
		t.Errorf("Center = %v", got)
	}
}

func TestMat4Identity(t *testing.T) {
	p := V3(1, 2, 3)
	if got := Identity().TransformPoint(p); got != p {
		t.Errorf("identity transform = %v", got)
	}
}

func TestMat4TranslateRotate(t *testing.T) {
	m := Translate(1, 2, 3)
	if got := m.TransformPoint(V3(0, 0, 0)); got != V3(1, 2, 3) {
		t.Errorf("translate = %v", got)
	}
	// Rotating (1,0,0) by 90 deg about Z gives (0,1,0).
	r := RotateZ(math.Pi / 2)
	got := r.TransformPoint(V3(1, 0, 0))
	if !got.ApproxEqual(V3(0, 1, 0), 1e-6) {
		t.Errorf("rotateZ = %v", got)
	}
	// Direction transform ignores translation.
	tr := Translate(5, 5, 5)
	if got := tr.TransformDir(V3(1, 0, 0)); got != V3(1, 0, 0) {
		t.Errorf("TransformDir with translation = %v", got)
	}
}

func TestMat4MulOrder(t *testing.T) {
	// M = T * R means rotate first, then translate.
	m := Translate(10, 0, 0).Mul(RotateZ(math.Pi / 2))
	got := m.TransformPoint(V3(1, 0, 0))
	if !got.ApproxEqual(V3(10, 1, 0), 1e-5) {
		t.Errorf("T*R transform = %v, want (10,1,0)", got)
	}
}

func TestMat4Inverted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		m := Translate(rng.Float32()*10-5, rng.Float32()*10-5, rng.Float32()*10-5).
			Mul(RotateX(rng.Float32() * 6)).
			Mul(RotateY(rng.Float32() * 6)).
			Mul(RotateZ(rng.Float32() * 6)).
			Mul(Scale(1+rng.Float32(), 1+rng.Float32(), 1+rng.Float32()))
		inv, ok := m.Inverted()
		if !ok {
			t.Fatalf("iter %d: matrix not invertible", i)
		}
		if got := m.Mul(inv); !got.ApproxEqual(Identity(), 1e-4) {
			t.Fatalf("iter %d: m*inv = %v", i, got)
		}
	}
}

func TestMat4SingularInverted(t *testing.T) {
	if _, ok := Scale(0, 1, 1).Inverted(); ok {
		t.Error("singular matrix reported invertible")
	}
}

func TestMat4Transposed(t *testing.T) {
	m := Translate(1, 2, 3)
	tt := m.Transposed().Transposed()
	if !tt.ApproxEqual(m, 0) {
		t.Errorf("double transpose != original")
	}
}

func TestLookAt(t *testing.T) {
	// Eye at +Z looking at origin: origin maps to (0,0,-dist).
	view := LookAt(V3(0, 0, 5), V3(0, 0, 0), V3(0, 1, 0))
	got := view.TransformPoint(V3(0, 0, 0))
	if !got.ApproxEqual(V3(0, 0, -5), 1e-5) {
		t.Errorf("LookAt origin = %v", got)
	}
	// A point right of the target maps to +X in view space.
	got = view.TransformPoint(V3(1, 0, 0))
	if !got.ApproxEqual(V3(1, 0, -5), 1e-5) {
		t.Errorf("LookAt right = %v", got)
	}
}

func TestPerspective(t *testing.T) {
	p := Perspective(math.Pi/2, 1, 1, 100)
	// A point on the near plane maps to z = -1.
	v, w := p.TransformPointW(V3(0, 0, -1))
	if absf(v.Z/w+1) > 1e-5 {
		t.Errorf("near plane z/w = %v", v.Z/w)
	}
	// A point on the far plane maps to z = +1.
	v, w = p.TransformPointW(V3(0, 0, -100))
	if absf(v.Z/w-1) > 1e-4 {
		t.Errorf("far plane z/w = %v", v.Z/w)
	}
}

func TestQuatRotateMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		axis := V3(rng.Float32()*2-1, rng.Float32()*2-1, rng.Float32()*2-1)
		if axis.Len() < 1e-3 {
			continue
		}
		angle := rng.Float32() * 6
		q := AxisAngle(axis, angle)
		v := V3(rng.Float32()*4-2, rng.Float32()*4-2, rng.Float32()*4-2)
		qv := q.Rotate(v)
		mv := q.Mat4().TransformPoint(v)
		if !qv.ApproxEqual(mv, 1e-4) {
			t.Fatalf("iter %d: quat %v vs mat %v", i, qv, mv)
		}
	}
}

func TestQuatRotatePreservesLength(t *testing.T) {
	f := func(ax, ay, az, angle, vx, vy, vz float32) bool {
		axis := V3(clampf(ax), clampf(ay), clampf(az))
		if axis.Len() < 1e-3 {
			axis = V3(0, 0, 1)
		}
		v := V3(clampf(vx), clampf(vy), clampf(vz))
		got := AxisAngle(axis, clampf(angle)).Rotate(v)
		return absf(got.Len()-v.Len()) <= 1e-2*(v.Len()+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuatMulCompose(t *testing.T) {
	// 90 deg about Z then 90 deg about X equals the composed quaternion.
	qz := AxisAngle(V3(0, 0, 1), math.Pi/2)
	qx := AxisAngle(V3(1, 0, 0), math.Pi/2)
	composed := qx.Mul(qz)
	v := V3(1, 0, 0)
	step := qx.Rotate(qz.Rotate(v))
	if got := composed.Rotate(v); !got.ApproxEqual(step, 1e-5) {
		t.Errorf("composed %v vs stepwise %v", got, step)
	}
}

func TestQuatConjInverse(t *testing.T) {
	q := AxisAngle(V3(1, 2, 3), 1.1)
	v := V3(4, -5, 6)
	back := q.Conj().Rotate(q.Rotate(v))
	if !back.ApproxEqual(v, 1e-4) {
		t.Errorf("conj did not invert: %v", back)
	}
}

func TestQuatSlerpEndpoints(t *testing.T) {
	a := AxisAngle(V3(0, 0, 1), 0.3)
	b := AxisAngle(V3(0, 1, 0), 1.7)
	v := V3(1, 2, 3)
	if got := a.Slerp(b, 0).Rotate(v); !got.ApproxEqual(a.Rotate(v), 1e-4) {
		t.Errorf("slerp(0) = %v", got)
	}
	if got := a.Slerp(b, 1).Rotate(v); !got.ApproxEqual(b.Rotate(v), 1e-4) {
		t.Errorf("slerp(1) = %v", got)
	}
}

func BenchmarkMat4Mul(b *testing.B) {
	m := RotateX(0.3)
	n := Translate(1, 2, 3)
	for i := 0; i < b.N; i++ {
		m = m.Mul(n)
	}
	_ = m
}

func BenchmarkMat4TransformPoint(b *testing.B) {
	m := Perspective(1, 1.3, 0.1, 100).Mul(LookAt(V3(0, 0, 5), Vec3{}, V3(0, 1, 0)))
	p := V3(1, 2, 3)
	for i := 0; i < b.N; i++ {
		p = m.TransformPoint(p)
		p = V3(1, 2, 3)
	}
	_ = p
}
