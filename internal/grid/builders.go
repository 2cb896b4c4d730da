package grid

import (
	"fmt"
	"math"

	"repro/internal/vmath"
)

// NewCartesian returns a uniform Cartesian grid spanning the box.
func NewCartesian(ni, nj, nk int, box vmath.AABB) (*Grid, error) {
	g, err := New(ni, nj, nk)
	if err != nil {
		return nil, err
	}
	size := box.Size()
	for k := 0; k < nk; k++ {
		fz := float32(k) / float32(nk-1)
		for j := 0; j < nj; j++ {
			fy := float32(j) / float32(nj-1)
			for i := 0; i < ni; i++ {
				fx := float32(i) / float32(ni-1)
				g.SetAt(i, j, k, vmath.Vec3{
					X: box.Min.X + fx*size.X,
					Y: box.Min.Y + fy*size.Y,
					Z: box.Min.Z + fz*size.Z,
				})
			}
		}
	}
	return g, nil
}

// TaperedCylinderSpec describes the O-grid around a tapered cylinder,
// modeled on the Jespersen–Levit dataset the paper visualizes: the
// cylinder axis runs along Z, its radius shrinks linearly from R0 at
// z = 0 to R1 at z = Span, and the grid wraps around it with radial
// index i, circumferential index j, and spanwise index k.
type TaperedCylinderSpec struct {
	NI, NJ, NK int     // radial, circumferential, spanwise node counts
	R0, R1     float32 // cylinder radius at z = 0 and z = Span
	Router     float32 // outer boundary radius
	Span       float32 // spanwise extent along Z
	Stretch    float32 // radial stretching exponent (>= 1; 1 = uniform)
}

// DefaultTaperedCylinder is a laptop-scale stand-in for the paper's
// 131,072-point (64x64x32) tapered cylinder grid.
//
//vw:testonly
func DefaultTaperedCylinder() TaperedCylinderSpec {
	return TaperedCylinderSpec{
		NI: 64, NJ: 64, NK: 32,
		R0: 1.0, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	}
}

// NewTaperedCylinder builds the O-grid described by spec.
func NewTaperedCylinder(spec TaperedCylinderSpec) (*Grid, error) {
	if spec.R0 <= 0 || spec.R1 <= 0 || spec.Router <= spec.R0 || spec.Router <= spec.R1 {
		return nil, fmt.Errorf("grid: invalid tapered cylinder radii R0=%g R1=%g Router=%g",
			spec.R0, spec.R1, spec.Router)
	}
	if spec.Stretch < 1 {
		return nil, fmt.Errorf("grid: stretch %g < 1", spec.Stretch)
	}
	g, err := New(spec.NI, spec.NJ, spec.NK)
	if err != nil {
		return nil, err
	}
	for k := 0; k < spec.NK; k++ {
		fz := float32(k) / float32(spec.NK-1)
		z := fz * spec.Span
		rin := spec.R0 + (spec.R1-spec.R0)*fz
		for j := 0; j < spec.NJ; j++ {
			// The circumferential direction does not quite close on
			// itself (the last node stops one spacing short of 2*pi),
			// matching a C-grid cut; tools never integrate across the
			// cut in grid coordinates.
			theta := 2 * math.Pi * float64(j) / float64(spec.NJ)
			s, c := math.Sincos(theta)
			for i := 0; i < spec.NI; i++ {
				fr := float32(i) / float32(spec.NI-1)
				// Stretch clusters radial nodes near the cylinder wall
				// where boundary-layer resolution matters.
				fr = float32(math.Pow(float64(fr), float64(spec.Stretch)))
				r := rin + fr*(spec.Router-rin)
				g.SetAt(i, j, k, vmath.Vec3{
					X: r * float32(c),
					Y: r * float32(s),
					Z: z,
				})
			}
		}
	}
	return g, nil
}
