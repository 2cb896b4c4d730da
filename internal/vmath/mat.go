package vmath

import (
	"fmt"
	"math"
)

// Mat4 is a 4x4 homogeneous transform matrix stored row-major:
// element (row r, column c) is at index 4*r+c. Points transform as
// column vectors, p' = M p, matching the paper's description of the
// BOOM position/orientation matrix concatenated onto the graphics
// transformation stack.
type Mat4 [16]float32

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Translate returns a translation by (x, y, z).
func Translate(x, y, z float32) Mat4 {
	return Mat4{
		1, 0, 0, x,
		0, 1, 0, y,
		0, 0, 1, z,
		0, 0, 0, 1,
	}
}

// RotateX returns a rotation about the X axis by angle radians.
func RotateX(angle float32) Mat4 {
	s, c := sincos(angle)
	return Mat4{
		1, 0, 0, 0,
		0, c, -s, 0,
		0, s, c, 0,
		0, 0, 0, 1,
	}
}

// RotateY returns a rotation about the Y axis by angle radians.
func RotateY(angle float32) Mat4 {
	s, c := sincos(angle)
	return Mat4{
		c, 0, s, 0,
		0, 1, 0, 0,
		-s, 0, c, 0,
		0, 0, 0, 1,
	}
}

// RotateZ returns a rotation about the Z axis by angle radians.
func RotateZ(angle float32) Mat4 {
	s, c := sincos(angle)
	return Mat4{
		c, -s, 0, 0,
		s, c, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

func sincos(angle float32) (s, c float32) {
	s64, c64 := math.Sincos(float64(angle))
	return float32(s64), float32(c64)
}

// Mul returns the matrix product m*n (apply n first, then m).
func (m Mat4) Mul(n Mat4) Mat4 {
	var r Mat4
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			var sum float32
			for k := 0; k < 4; k++ {
				sum += m[4*row+k] * n[4*k+col]
			}
			r[4*row+col] = sum
		}
	}
	return r
}

// TransformPoint applies m to the point p (w = 1) and returns the
// result after perspective division.
func (m Mat4) TransformPoint(p Vec3) Vec3 {
	x := m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y := m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z := m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w := m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	if w != 0 && w != 1 {
		inv := 1 / w
		return Vec3{x * inv, y * inv, z * inv}
	}
	return Vec3{x, y, z}
}

// TransformPointW applies m to the point p (w = 1) and returns the raw
// homogeneous result before division. Renderers need the undivided w
// to clip against the near plane.
func (m Mat4) TransformPointW(p Vec3) (Vec3, float32) {
	x := m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y := m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z := m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w := m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	return Vec3{x, y, z}, w
}

// Inverted returns the inverse of m and whether m was invertible.
// A general cofactor inverse; rigid transforms could use a cheaper
// path but inversion happens once per frame, not per point.
func (m Mat4) Inverted() (Mat4, bool) {
	a := [16]float64{}
	for i, v := range m {
		a[i] = float64(v)
	}
	inv := [16]float64{}

	inv[0] = a[5]*a[10]*a[15] - a[5]*a[11]*a[14] - a[9]*a[6]*a[15] +
		a[9]*a[7]*a[14] + a[13]*a[6]*a[11] - a[13]*a[7]*a[10]
	inv[4] = -a[4]*a[10]*a[15] + a[4]*a[11]*a[14] + a[8]*a[6]*a[15] -
		a[8]*a[7]*a[14] - a[12]*a[6]*a[11] + a[12]*a[7]*a[10]
	inv[8] = a[4]*a[9]*a[15] - a[4]*a[11]*a[13] - a[8]*a[5]*a[15] +
		a[8]*a[7]*a[13] + a[12]*a[5]*a[11] - a[12]*a[7]*a[9]
	inv[12] = -a[4]*a[9]*a[14] + a[4]*a[10]*a[13] + a[8]*a[5]*a[14] -
		a[8]*a[6]*a[13] - a[12]*a[5]*a[10] + a[12]*a[6]*a[9]
	inv[1] = -a[1]*a[10]*a[15] + a[1]*a[11]*a[14] + a[9]*a[2]*a[15] -
		a[9]*a[3]*a[14] - a[13]*a[2]*a[11] + a[13]*a[3]*a[10]
	inv[5] = a[0]*a[10]*a[15] - a[0]*a[11]*a[14] - a[8]*a[2]*a[15] +
		a[8]*a[3]*a[14] + a[12]*a[2]*a[11] - a[12]*a[3]*a[10]
	inv[9] = -a[0]*a[9]*a[15] + a[0]*a[11]*a[13] + a[8]*a[1]*a[15] -
		a[8]*a[3]*a[13] - a[12]*a[1]*a[11] + a[12]*a[3]*a[9]
	inv[13] = a[0]*a[9]*a[14] - a[0]*a[10]*a[13] - a[8]*a[1]*a[14] +
		a[8]*a[2]*a[13] + a[12]*a[1]*a[10] - a[12]*a[2]*a[9]
	inv[2] = a[1]*a[6]*a[15] - a[1]*a[7]*a[14] - a[5]*a[2]*a[15] +
		a[5]*a[3]*a[14] + a[13]*a[2]*a[7] - a[13]*a[3]*a[6]
	inv[6] = -a[0]*a[6]*a[15] + a[0]*a[7]*a[14] + a[4]*a[2]*a[15] -
		a[4]*a[3]*a[14] - a[12]*a[2]*a[7] + a[12]*a[3]*a[6]
	inv[10] = a[0]*a[5]*a[15] - a[0]*a[7]*a[13] - a[4]*a[1]*a[15] +
		a[4]*a[3]*a[13] + a[12]*a[1]*a[7] - a[12]*a[3]*a[5]
	inv[14] = -a[0]*a[5]*a[14] + a[0]*a[6]*a[13] + a[4]*a[1]*a[14] -
		a[4]*a[2]*a[13] - a[12]*a[1]*a[6] + a[12]*a[2]*a[5]
	inv[3] = -a[1]*a[6]*a[11] + a[1]*a[7]*a[10] + a[5]*a[2]*a[11] -
		a[5]*a[3]*a[10] - a[9]*a[2]*a[7] + a[9]*a[3]*a[6]
	inv[7] = a[0]*a[6]*a[11] - a[0]*a[7]*a[10] - a[4]*a[2]*a[11] +
		a[4]*a[3]*a[10] + a[8]*a[2]*a[7] - a[8]*a[3]*a[6]
	inv[11] = -a[0]*a[5]*a[11] + a[0]*a[7]*a[9] + a[4]*a[1]*a[11] -
		a[4]*a[3]*a[9] - a[8]*a[1]*a[7] + a[8]*a[3]*a[5]
	inv[15] = a[0]*a[5]*a[10] - a[0]*a[6]*a[9] - a[4]*a[1]*a[10] +
		a[4]*a[2]*a[9] + a[8]*a[1]*a[6] - a[8]*a[2]*a[5]

	det := a[0]*inv[0] + a[1]*inv[4] + a[2]*inv[8] + a[3]*inv[12]
	if det == 0 {
		return Mat4{}, false
	}
	det = 1 / det
	var r Mat4
	for i := range inv {
		r[i] = float32(inv[i] * det)
	}
	return r, true
}

// LookAt returns a view matrix for an eye at eye, looking at target,
// with the given up vector.
func LookAt(eye, target, up Vec3) Mat4 {
	f := target.Sub(eye).normalized()
	s := f.Cross(up.normalized()).normalized()
	u := s.Cross(f)
	view := Mat4{
		s.X, s.Y, s.Z, 0,
		u.X, u.Y, u.Z, 0,
		-f.X, -f.Y, -f.Z, 0,
		0, 0, 0, 1,
	}
	return view.Mul(Translate(-eye.X, -eye.Y, -eye.Z))
}

// Perspective returns a perspective projection matrix with vertical
// field of view fovy (radians), aspect ratio, and near/far planes.
// Clip-space z maps to [-1, 1].
func Perspective(fovy, aspect, near, far float32) Mat4 {
	f := float32(1 / math.Tan(float64(fovy)/2))
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}

// ApproxEqual reports whether m and n differ by at most eps in every
// element.
//
//vw:testonly
func (m Mat4) ApproxEqual(n Mat4, eps float32) bool {
	for i := range m {
		if absf(m[i]-n[i]) > eps {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (m Mat4) String() string {
	return fmt.Sprintf("[%v %v %v %v; %v %v %v %v; %v %v %v %v; %v %v %v %v]",
		m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7],
		m[8], m[9], m[10], m[11], m[12], m[13], m[14], m[15])
}
