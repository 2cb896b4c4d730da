// Package vmath provides the small fixed-size linear algebra used
// throughout the virtual windtunnel: 3-vectors, 4x4 homogeneous
// matrices, and quaternions. All types are values; operations return
// new values and never mutate their receivers unless the method name
// says so.
package vmath

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector of float32. Float32 matches the paper's
// wire format: visualization points travel as arrays of three 32-bit
// IEEE floats (12 bytes/point).
type Vec3 struct {
	X, Y, Z float32
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float32) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Mul returns the component-wise product v*w.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float32 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float32 {
	return float32(math.Sqrt(float64(v.Dot(v))))
}

// LenSq returns the squared Euclidean norm of v.
func (v Vec3) LenSq() float32 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float32 { return v.Sub(w).Len() }

// Normalized returns v/|v|, or the zero vector if |v| is zero.
func (v Vec3) Normalized() Vec3 {
	l := v.Len()
	if l == 0 {
		return Vec3{}
	}
	return v.Scale(1 / l)
}

// Lerp returns (1-t)*v + t*w.
func (v Vec3) Lerp(w Vec3, t float32) Vec3 {
	return Vec3{
		v.X + t*(w.X-v.X),
		v.Y + t*(w.Y-v.Y),
		v.Z + t*(w.Z-v.Z),
	}
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return isFinite(v.X) && isFinite(v.Y) && isFinite(v.Z)
}

// isFinite is f-f == 0: a finite f gives +0, and ±Inf or NaN give NaN,
// which compares unequal to everything.
func isFinite(f float32) bool {
	return f-f == 0
}

// BitsEqual reports whether v and w hold the same three IEEE 754 bit
// patterns — the equality the bit-identical geometry contracts mean: it
// tells -0 from 0 and calls two NaNs equal only when their payloads
// match, where == does neither.
func (v Vec3) BitsEqual(w Vec3) bool {
	return math.Float32bits(v.X) == math.Float32bits(w.X) &&
		math.Float32bits(v.Y) == math.Float32bits(w.Y) &&
		math.Float32bits(v.Z) == math.Float32bits(w.Z)
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}

// ApproxEqual reports whether v and w differ by at most eps in every
// component.
func (v Vec3) ApproxEqual(w Vec3, eps float32) bool {
	return absf(v.X-w.X) <= eps && absf(v.Y-w.Y) <= eps && absf(v.Z-w.Z) <= eps
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the smallest box containing all the given points.
// An empty point list yields an inverted (empty) box.
func NewAABB(pts ...Vec3) AABB {
	const big = math.MaxFloat32
	b := AABB{Min: V3(big, big, big), Max: V3(-big, -big, -big)}
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the box grown to contain p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Contains reports whether p is inside the box (inclusive).
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extents along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Clamp returns p clamped to lie within the box.
func (b AABB) Clamp(p Vec3) Vec3 { return p.Max(b.Min).Min(b.Max) }
