// Package integrate implements the windtunnel's visualization tools:
// streamlines, particle paths, and streaklines (§2.1 of the paper),
// plus the seed-point rakes that control them.
//
// All integration happens in grid coordinates (the paper's key
// optimization): a Sampler's levels hold velocity in units of grid cells
// per flow-time unit, so each step is pure array arithmetic. Streamlines
// and particle paths come back in physical coordinates, each point
// converted by direct trilinear lookup of node positions; streakline
// particles stay in grid coordinates, since they move again next frame.
//
//vw:deterministic
package integrate

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// Sampler hands the integration kernel the arrays its samples read: the
// grid and, per time level (timestep), one grid-coordinate velocity
// field. The velocity it stands for at (gc, t) is the one
// field.Unsteady.SampleAtTime defines: level 0 alone for t <= 0, the
// last level alone for t >= NumLevels-1, else levels int(t) and int(t)+1
// blended by Vec3.Lerp at t - int(t). The kernel asks for a level only
// when the bracket changes, never per sample, so Level may take a lock
// or touch a cache.
type Sampler interface {
	// Grid returns the grid defining the computational domain.
	Grid() *grid.Grid
	// NumLevels is the number of time levels, at least 1. One level is a
	// steady field: time is ignored.
	NumLevels() int
	// Level returns time level i, 0 <= i < NumLevels, or nil when it
	// cannot be had (a failed load). The kernel ends a path at the first
	// sample whose bracket is missing a level, and asks for that level
	// once per path it ends there, so a source counting the nils it hands
	// out counts the paths stopped.
	Level(i int) *field.Field
}

// SteadySampler samples a single timestep; time is ignored. Streamline
// computation uses it: "integrate the particle position without
// incrementing the current timestep".
type SteadySampler struct {
	F *field.Field
	G *grid.Grid
}

// SampleVelocity is the velocity at one point, for Step.
func (s SteadySampler) SampleVelocity(gc vmath.Vec3, _ float32) vmath.Vec3 {
	return s.F.Sample(s.G, gc)
}

// Grid implements Sampler.
func (s SteadySampler) Grid() *grid.Grid { return s.G }

// NumLevels implements Sampler.
func (s SteadySampler) NumLevels() int { return 1 }

// Level implements Sampler.
func (s SteadySampler) Level(int) *field.Field { return s.F }

// UnsteadySampler samples an unsteady dataset with linear time
// interpolation. Particle paths use it: "incrementing the timestep
// with each integration".
//
//vw:testonly
type UnsteadySampler struct {
	U *field.Unsteady
}

// SampleVelocity is the velocity at one point and time, for Step.
func (s UnsteadySampler) SampleVelocity(gc vmath.Vec3, t float32) vmath.Vec3 {
	return s.U.SampleAtTime(gc, t)
}

// Grid implements Sampler.
func (s UnsteadySampler) Grid() *grid.Grid { return s.U.Grid }

// NumLevels implements Sampler.
func (s UnsteadySampler) NumLevels() int { return len(s.U.Steps) }

// Level implements Sampler.
func (s UnsteadySampler) Level(i int) *field.Field { return s.U.Steps[i] }

// Method selects the integration scheme.
type Method uint8

const (
	// Euler is first-order forward Euler: one field access per step.
	Euler Method = iota
	// RK2 is the paper's scheme (§5.3): second-order Runge-Kutta
	// (midpoint), two field accesses per step.
	RK2
	// RK4 is classical fourth-order Runge-Kutta: four field accesses.
	RK4
)

func (m Method) String() string {
	switch m {
	case Euler:
		return "euler"
	case RK2:
		return "rk2"
	case RK4:
		return "rk4"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// step advances one particle at grid coordinate gc by time step h
// (flow-time units expressed in timestep counts) using the method,
// sampling s once per stage. The returned position is NOT bounds
// checked; callers decide termination. The kernel takes every step in
// step's arithmetic; MultiStreamline, which hops between blocks, calls
// step itself.
func step(m Method, s interface {
	SampleVelocity(gc vmath.Vec3, t float32) vmath.Vec3
}, gc vmath.Vec3, t, h float32) vmath.Vec3 {
	switch m {
	case Euler:
		return gc.Add(s.SampleVelocity(gc, t).Scale(h))
	case RK2:
		k1 := s.SampleVelocity(gc, t)
		mid := gc.Add(k1.Scale(h / 2))
		k2 := s.SampleVelocity(mid, t+h/2)
		return gc.Add(k2.Scale(h))
	case RK4:
		k1 := s.SampleVelocity(gc, t)
		k2 := s.SampleVelocity(gc.Add(k1.Scale(h/2)), t+h/2)
		k3 := s.SampleVelocity(gc.Add(k2.Scale(h/2)), t+h/2)
		k4 := s.SampleVelocity(gc.Add(k3.Scale(h)), t+h)
		sum := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4)
		return gc.Add(sum.Scale(h / 6))
	default:
		panic(fmt.Sprintf("integrate: unknown method %d", m))
	}
}

// Options configures path computation.
type Options struct {
	Method   Method
	StepSize float32 // integration step in timestep units; sign = direction
	MaxSteps int     // maximum points after the seed
	// MinSpeed terminates integration when grid-coordinate speed drops
	// below it (stagnation); zero uses a small default.
	MinSpeed float32
}

// DefaultOptions matches the paper's configuration: RK2, 200-point
// paths.
func DefaultOptions() Options {
	return Options{Method: RK2, StepSize: 0.25, MaxSteps: 200, MinSpeed: 1e-6}
}

// effectiveMinSpeed returns MinSpeed or its small default.
func (o Options) effectiveMinSpeed() float32 {
	if o.MinSpeed > 0 {
		return o.MinSpeed
	}
	return 1e-6
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.StepSize == 0 {
		return fmt.Errorf("integrate: zero step size")
	}
	if o.MaxSteps < 1 {
		return fmt.Errorf("integrate: MaxSteps %d < 1", o.MaxSteps)
	}
	return nil
}

// Streamline integrates the instantaneous field at fixed time t from
// the seed (grid coordinates), returning the path in physical
// coordinates. The path includes the seed and stops at the domain
// boundary, at stagnation, or after MaxSteps points.
func Streamline(s Sampler, seed vmath.Vec3, t float32, o Options) []vmath.Vec3 {
	path, _ := AppendStreamlines(make([]vmath.Vec3, 0, o.MaxSteps+1), s, []vmath.Vec3{seed}, t, o)
	return path
}

// AppendStreamlines is Streamline for up to Lanes seeds, traced in lock
// step: it appends their paths to dst one after another, in seed order,
// and returns each path's length (0 for a seed outside the domain). A
// caller tracing many seeds so carves its lines out of one buffer: with
// len(seeds)*(MaxSteps+1) points of spare capacity in dst it allocates
// nothing.
func AppendStreamlines(dst []vmath.Vec3, s Sampler, seeds []vmath.Vec3, t float32, o Options) ([]vmath.Vec3, [Lanes]int) {
	k := newKernel(s, o.Method)
	return k.streamlines(dst, seeds, t, o)
}

// ParticlePath integrates through time from the seed (grid
// coordinates) starting at time t0, incrementing time by StepSize each
// step — a "time exposure photograph" of one particle — and returns
// the path in physical coordinates. The path stops at the domain
// boundary, at the dataset's time bounds, after MaxSteps points, or
// where the Sampler cannot supply a time level it needs.
//
//vw:testonly
func ParticlePath(s Sampler, seed vmath.Vec3, t0 float32, maxTime float32, o Options) []vmath.Vec3 {
	path, _ := AppendParticlePaths(make([]vmath.Vec3, 0, o.MaxSteps+1), s, []vmath.Vec3{seed}, t0, maxTime, o)
	return path
}

// AppendParticlePaths is ParticlePath for up to Lanes seeds, traced in
// lock step, under AppendStreamlines' contract.
func AppendParticlePaths(dst []vmath.Vec3, s Sampler, seeds []vmath.Vec3, t0, maxTime float32, o Options) ([]vmath.Vec3, [Lanes]int) {
	k := newKernel(s, o.Method)
	return k.particlePaths(dst, seeds, t0, maxTime, o)
}

// ToPhysical converts a grid-coordinate path (a streakline's particles)
// to physical coordinates using direct trilinear lookup — the cheap
// reverse conversion the paper relies on.
func ToPhysical(g *grid.Grid, path []vmath.Vec3) []vmath.Vec3 {
	return ToPhysicalInto(g, nil, path)
}

// ToPhysicalInto is ToPhysical appending into dst's capacity, so
// per-frame callers can recycle the previous frame's path buffers
// instead of reallocating TotalPoints vectors every round. It converts
// Lanes points at a time with one Locate4 and one Interp3x4 over the
// node positions, the rest one at a time with PhysAt: the same
// arithmetic, so the same bits at every finite point.
func ToPhysicalInto(g *grid.Grid, dst []vmath.Vec3, path []vmath.Vec3) []vmath.Vec3 {
	if cap(dst) >= len(path) {
		dst = dst[:len(path)]
	} else {
		dst = make([]vmath.Vec3, len(path))
	}
	var c grid.Cells4
	var p [3][Lanes]float32
	i := 0
	for ; i+Lanes <= len(path); i += Lanes {
		g.Locate4((*[Lanes]vmath.Vec3)(path[i:i+Lanes]), &c)
		grid.Interp3x4(g.X, g.Y, g.Z, &c, &p)
		for l := range Lanes {
			dst[i+l] = vmath.Vec3{X: p[0][l], Y: p[1][l], Z: p[2][l]}
		}
	}
	for ; i < len(path); i++ {
		dst[i] = g.PhysAt(path[i])
	}
	return dst
}
