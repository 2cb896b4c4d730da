// Package solver is the CFD substrate: a 3-D incompressible
// Navier-Stokes solver that generates unsteady flowfield datasets for
// the windtunnel, standing in for the pre-computed Jespersen-Levit
// tapered cylinder solution the paper visualizes.
//
// It is a collocated uniform-grid solver using Chorin's projection
// method: semi-Lagrangian advection (unconditionally stable), explicit
// diffusion, and a Jacobi-iterated pressure Poisson solve, with an
// immersed-boundary solid mask for bodies such as the tapered
// cylinder. It trades accuracy for robustness — the windtunnel needs
// plausible unsteady vortical flow at interactive dataset-generation
// cost, not publication CFD.
package solver

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// Boundary selects the domain boundary treatment.
type Boundary uint8

const (
	// WindTunnelBounds: inflow at x-min, outflow at x-max, free slip
	// on the other four faces.
	WindTunnelBounds Boundary = iota
	// periodicBounds wraps all axes, for validation against exact
	// periodic solutions (Taylor-Green).
	periodicBounds
)

// Solver holds the simulation state on an NX x NY x NZ cell grid with
// uniform spacing H. Velocity components are collocated at cell
// centers.
type Solver struct {
	NX, NY, NZ int
	H          float32 // cell size
	Nu         float32 // kinematic viscosity
	InflowU    float32 // inflow speed along +X (WindTunnelBounds)
	Bounds     Boundary

	U, V, W []float32 // velocity
	P       []float32 // pressure (up to a constant)
	Solid   []bool    // immersed solid mask

	// PressureIters is the Jacobi iteration count per projection.
	PressureIters int

	// workers is the slab-parallelism degree (see SetWorkers).
	workers int

	// scratch buffers reused across steps
	u2, v2, w2, div, p2 []float32
}

// New constructs a solver with zero initial velocity.
func New(nx, ny, nz int, h, nu float32, bounds Boundary) (*Solver, error) {
	if nx < 4 || ny < 4 || nz < 4 {
		return nil, fmt.Errorf("solver: grid %dx%dx%d too small (need >= 4 each)", nx, ny, nz)
	}
	if h <= 0 {
		return nil, fmt.Errorf("solver: non-positive cell size %g", h)
	}
	if nu < 0 {
		return nil, fmt.Errorf("solver: negative viscosity %g", nu)
	}
	n := nx * ny * nz
	return &Solver{
		NX: nx, NY: ny, NZ: nz, H: h, Nu: nu, Bounds: bounds,
		U: make([]float32, n), V: make([]float32, n), W: make([]float32, n),
		P: make([]float32, n), Solid: make([]bool, n),
		PressureIters: 40,
		u2:            make([]float32, n), v2: make([]float32, n), w2: make([]float32, n),
		div: make([]float32, n), p2: make([]float32, n),
	}, nil
}

func (s *Solver) idx(i, j, k int) int { return (k*s.NY+j)*s.NX + i }

// wrap maps index i into [0, n) with periodic wrapping.
func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func clampi(i, lo, hi int) int {
	if i < lo {
		return lo
	}
	if i > hi {
		return hi
	}
	return i
}

// at returns component a at cell (i, j, k) honoring the boundary mode.
func (s *Solver) at(a []float32, i, j, k int) float32 {
	if s.Bounds == periodicBounds {
		return a[s.idx(wrap(i, s.NX), wrap(j, s.NY), wrap(k, s.NZ))]
	}
	return a[s.idx(clampi(i, 0, s.NX-1), clampi(j, 0, s.NY-1), clampi(k, 0, s.NZ-1))]
}

// SetVelocity initializes the velocity from an analytic function of
// cell-center physical position.
func (s *Solver) SetVelocity(f func(p vmath.Vec3) vmath.Vec3) {
	for k := 0; k < s.NZ; k++ {
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				v := f(s.cellCenter(i, j, k))
				n := s.idx(i, j, k)
				s.U[n], s.V[n], s.W[n] = v.X, v.Y, v.Z
			}
		}
	}
}

// cellCenter returns the physical position of cell (i, j, k).
func (s *Solver) cellCenter(i, j, k int) vmath.Vec3 {
	return vmath.Vec3{
		X: (float32(i) + 0.5) * s.H,
		Y: (float32(j) + 0.5) * s.H,
		Z: (float32(k) + 0.5) * s.H,
	}
}

// DomainSize returns the physical extents.
func (s *Solver) DomainSize() vmath.Vec3 {
	return vmath.Vec3{
		X: float32(s.NX) * s.H,
		Y: float32(s.NY) * s.H,
		Z: float32(s.NZ) * s.H,
	}
}

// addSolid marks as solid every cell whose center satisfies inside.
func (s *Solver) addSolid(inside func(p vmath.Vec3) bool) {
	for k := 0; k < s.NZ; k++ {
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				if inside(s.cellCenter(i, j, k)) {
					s.Solid[s.idx(i, j, k)] = true
				}
			}
		}
	}
}

// AddTaperedCylinder marks the tapered cylinder solid: axis along Z at
// (cx, cy), radius tapering from r0 at z=0 to r1 at z=zmax.
func (s *Solver) AddTaperedCylinder(cx, cy, r0, r1 float32) {
	zmax := float32(s.NZ) * s.H
	s.addSolid(func(p vmath.Vec3) bool {
		fz := p.Z / zmax
		r := r0 + (r1-r0)*fz
		dx, dy := p.X-cx, p.Y-cy
		return dx*dx+dy*dy < r*r
	})
}

// SetTaperedCylinder replaces the solid mask with a fresh tapered
// cylinder — the live-steering path for reshaping the model between
// timesteps. Cells leaving the solid keep their (zero) velocity and are
// re-entrained by the flow; cells entering it are zeroed by
// enforceBoundaries on the next Step.
func (s *Solver) SetTaperedCylinder(cx, cy, r0, r1 float32) {
	for n := range s.Solid {
		s.Solid[n] = false
	}
	s.AddTaperedCylinder(cx, cy, r0, r1)
}

// maxSpeed returns the largest velocity magnitude, for CFL step
// selection.
func (s *Solver) maxSpeed() float32 {
	var m float32
	for i := range s.U {
		sq := s.U[i]*s.U[i] + s.V[i]*s.V[i] + s.W[i]*s.W[i]
		if sq > m {
			m = sq
		}
	}
	return float32(math.Sqrt(float64(m)))
}

// Step advances the simulation by dt.
func (s *Solver) Step(dt float32) {
	s.advect(dt)
	if s.Nu > 0 {
		s.diffuse(dt)
	}
	s.enforceBoundaries()
	s.project(dt)
	s.enforceBoundaries()
}

// sampleVel trilinearly samples velocity at physical point p.
func (s *Solver) sampleVel(p vmath.Vec3) vmath.Vec3 {
	// Convert to cell-center index space.
	x := p.X/s.H - 0.5
	y := p.Y/s.H - 0.5
	z := p.Z/s.H - 0.5
	i0 := int(math.Floor(float64(x)))
	j0 := int(math.Floor(float64(y)))
	k0 := int(math.Floor(float64(z)))
	fx := x - float32(i0)
	fy := y - float32(j0)
	fz := z - float32(k0)
	sample := func(comp []float32) float32 {
		c00 := lerp(s.at(comp, i0, j0, k0), s.at(comp, i0+1, j0, k0), fx)
		c10 := lerp(s.at(comp, i0, j0+1, k0), s.at(comp, i0+1, j0+1, k0), fx)
		c01 := lerp(s.at(comp, i0, j0, k0+1), s.at(comp, i0+1, j0, k0+1), fx)
		c11 := lerp(s.at(comp, i0, j0+1, k0+1), s.at(comp, i0+1, j0+1, k0+1), fx)
		return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
	}
	return vmath.Vec3{X: sample(s.U), Y: sample(s.V), Z: sample(s.W)}
}

func lerp(a, b, t float32) float32 { return a + t*(b-a) }

// advect moves velocity with itself using semi-Lagrangian RK2
// backtracing.
func (s *Solver) advect(dt float32) {
	s.forEachSlab(func(kLo, kHi int) {
		s.advectSlab(dt, kLo, kHi)
	})
	s.U, s.u2 = s.u2, s.U
	s.V, s.v2 = s.v2, s.V
	s.W, s.w2 = s.w2, s.W
}

func (s *Solver) advectSlab(dt float32, kLo, kHi int) {
	for k := kLo; k < kHi; k++ {
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				n := s.idx(i, j, k)
				if s.Solid[n] {
					s.u2[n], s.v2[n], s.w2[n] = 0, 0, 0
					continue
				}
				p := s.cellCenter(i, j, k)
				v1 := vmath.Vec3{X: s.U[n], Y: s.V[n], Z: s.W[n]}
				mid := p.Sub(v1.Scale(dt / 2))
				v2 := s.sampleVel(mid)
				src := p.Sub(v2.Scale(dt))
				v := s.sampleVel(src)
				s.u2[n], s.v2[n], s.w2[n] = v.X, v.Y, v.Z
			}
		}
	}
}

// diffuse applies explicit viscous diffusion. Stability requires
// nu*dt/h^2 < 1/6; Step callers pick dt accordingly (CFLStep helps).
func (s *Solver) diffuse(dt float32) {
	alpha := s.Nu * dt / (s.H * s.H)
	for c := 0; c < 3; c++ {
		var src, dst []float32
		switch c {
		case 0:
			src, dst = s.U, s.u2
		case 1:
			src, dst = s.V, s.v2
		case 2:
			src, dst = s.W, s.w2
		}
		s.forEachSlab(func(kLo, kHi int) {
			for k := kLo; k < kHi; k++ {
				for j := 0; j < s.NY; j++ {
					for i := 0; i < s.NX; i++ {
						n := s.idx(i, j, k)
						if s.Solid[n] {
							dst[n] = 0
							continue
						}
						lap := s.at(src, i+1, j, k) + s.at(src, i-1, j, k) +
							s.at(src, i, j+1, k) + s.at(src, i, j-1, k) +
							s.at(src, i, j, k+1) + s.at(src, i, j, k-1) -
							6*src[n]
						dst[n] = src[n] + alpha*lap
					}
				}
			}
		})
	}
	s.U, s.u2 = s.u2, s.U
	s.V, s.v2 = s.v2, s.V
	s.W, s.w2 = s.w2, s.W
}

// enforceBoundaries applies domain and solid boundary conditions.
func (s *Solver) enforceBoundaries() {
	for n := range s.Solid {
		if s.Solid[n] {
			s.U[n], s.V[n], s.W[n] = 0, 0, 0
		}
	}
	if s.Bounds != WindTunnelBounds {
		return
	}
	for k := 0; k < s.NZ; k++ {
		for j := 0; j < s.NY; j++ {
			// Inflow: fixed velocity.
			in := s.idx(0, j, k)
			s.U[in], s.V[in], s.W[in] = s.InflowU, 0, 0
			// Outflow: zero-gradient.
			out := s.idx(s.NX-1, j, k)
			prev := s.idx(s.NX-2, j, k)
			s.U[out], s.V[out], s.W[out] = s.U[prev], s.V[prev], s.W[prev]
		}
	}
	// Free slip on y and z faces: kill the normal component.
	for k := 0; k < s.NZ; k++ {
		for i := 0; i < s.NX; i++ {
			s.V[s.idx(i, 0, k)] = 0
			s.V[s.idx(i, s.NY-1, k)] = 0
		}
	}
	for j := 0; j < s.NY; j++ {
		for i := 0; i < s.NX; i++ {
			s.W[s.idx(i, j, 0)] = 0
			s.W[s.idx(i, j, s.NZ-1)] = 0
		}
	}
}

// divergence fills div with the central-difference divergence and
// returns its max absolute value.
func (s *Solver) divergence() float32 {
	var maxDiv float32
	inv2h := 1 / (2 * s.H)
	for k := 0; k < s.NZ; k++ {
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				n := s.idx(i, j, k)
				if s.Solid[n] {
					s.div[n] = 0
					continue
				}
				d := (s.at(s.U, i+1, j, k)-s.at(s.U, i-1, j, k))*inv2h +
					(s.at(s.V, i, j+1, k)-s.at(s.V, i, j-1, k))*inv2h +
					(s.at(s.W, i, j, k+1)-s.at(s.W, i, j, k-1))*inv2h
				s.div[n] = d
				if d < 0 {
					d = -d
				}
				if d > maxDiv {
					maxDiv = d
				}
			}
		}
	}
	return maxDiv
}

// project makes the velocity field approximately divergence-free by
// solving lap(p) = div(u)/dt with Jacobi iteration and subtracting
// dt*grad(p).
func (s *Solver) project(dt float32) {
	s.divergence()
	h2 := s.H * s.H
	for i := range s.P {
		s.P[i] = 0
	}
	for it := 0; it < s.PressureIters; it++ {
		s.forEachSlab(func(kLo, kHi int) {
			for k := kLo; k < kHi; k++ {
				for j := 0; j < s.NY; j++ {
					for i := 0; i < s.NX; i++ {
						n := s.idx(i, j, k)
						if s.Solid[n] {
							s.p2[n] = 0
							continue
						}
						sum := s.at(s.P, i+1, j, k) + s.at(s.P, i-1, j, k) +
							s.at(s.P, i, j+1, k) + s.at(s.P, i, j-1, k) +
							s.at(s.P, i, j, k+1) + s.at(s.P, i, j, k-1)
						s.p2[n] = (sum - h2*s.div[n]/dt) / 6
					}
				}
			}
		})
		s.P, s.p2 = s.p2, s.P
	}
	inv2h := 1 / (2 * s.H)
	s.forEachSlab(func(kLo, kHi int) {
		for k := kLo; k < kHi; k++ {
			for j := 0; j < s.NY; j++ {
				for i := 0; i < s.NX; i++ {
					n := s.idx(i, j, k)
					if s.Solid[n] {
						continue
					}
					s.U[n] -= dt * (s.at(s.P, i+1, j, k) - s.at(s.P, i-1, j, k)) * inv2h
					s.V[n] -= dt * (s.at(s.P, i, j+1, k) - s.at(s.P, i, j-1, k)) * inv2h
					s.W[n] -= dt * (s.at(s.P, i, j, k+1) - s.at(s.P, i, j, k-1)) * inv2h
				}
			}
		}
	})
}

// CFLStep returns a stable timestep for the current state: the
// minimum of the advective CFL limit and the explicit diffusion limit.
func (s *Solver) CFLStep(cfl float32) float32 {
	dt := float32(0.1)
	if vmax := s.maxSpeed(); vmax > 0 {
		dt = cfl * s.H / vmax
	}
	if s.Nu > 0 {
		dMax := s.H * s.H / (6 * s.Nu) * 0.9
		if dMax < dt {
			dt = dMax
		}
	}
	return dt
}

// FieldOn samples the solver's velocity onto the nodes of a
// curvilinear grid (physical coordinates), producing a windtunnel
// timestep.
func (s *Solver) FieldOn(g *grid.Grid) *field.Field {
	f := field.NewField(g.NI, g.NJ, g.NK, field.Physical)
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				f.SetAt(i, j, k, s.sampleVel(g.At(i, j, k)))
			}
		}
	}
	return f
}
