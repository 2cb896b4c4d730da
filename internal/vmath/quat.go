package vmath

import "math"

// Quat is a unit quaternion (W + Xi + Yj + Zk) representing a 3-D
// rotation. The Polhemus tracker model reports hand orientation as a
// quaternion.
type Quat struct {
	W, X, Y, Z float32
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// AxisAngle returns the quaternion rotating by angle radians around
// the given (not necessarily normalized) axis.
func AxisAngle(axis Vec3, angle float32) Quat {
	a := axis.normalized()
	s, c := sincos(angle / 2)
	return Quat{W: c, X: a.X * s, Y: a.Y * s, Z: a.Z * s}
}

// Mul returns the quaternion product q*r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Normalized returns q scaled to unit length, or the identity if q is
// zero.
func (q Quat) Normalized() Quat {
	n := float32(math.Sqrt(float64(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)))
	if n == 0 {
		return QuatIdentity()
	}
	inv := 1 / n
	return Quat{q.W * inv, q.X * inv, q.Y * inv, q.Z * inv}
}
