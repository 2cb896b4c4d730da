// Package flow provides analytic unsteady velocity fields used to
// synthesize datasets. The paper visualizes a pre-computed
// Navier-Stokes solution of flow past a tapered cylinder (Jespersen &
// Levit); that solution is not available, so the windtunnel is fed
// either output from internal/solver or the analytic models here,
// which reproduce the qualitative phenomena the paper calls out:
// periodic vortex shedding, recirculation, and spanwise variation from
// the taper.
package flow

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// Flow is an analytic time-dependent velocity field in physical
// coordinates. VelocityAt must be safe for concurrent use: SampleUnsteady
// calls it from several goroutines. Every flow here is a plain value.
type Flow interface {
	// VelocityAt returns the physical velocity at point p and time t.
	VelocityAt(p vmath.Vec3, t float32) vmath.Vec3
	// Name identifies the flow in dataset metadata and logs.
	Name() string
}

// Sample evaluates the flow at every node of g at time t, returning a
// physical-coordinate field.
func Sample(f Flow, g *grid.Grid, t float32) *field.Field {
	out := field.NewField(g.NI, g.NJ, g.NK, field.Physical)
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				out.SetAt(i, j, k, f.VelocityAt(g.At(i, j, k), t))
			}
		}
	}
	return out
}

// SampleUnsteady samples numSteps timesteps separated by dt flow-time
// units, starting at t0, the steps spread over field.ForEachStep's
// workers.
func SampleUnsteady(f Flow, g *grid.Grid, numSteps int, t0, dt float32) (*field.Unsteady, error) {
	if numSteps < 1 {
		return nil, fmt.Errorf("flow: need at least one timestep, got %d", numSteps)
	}
	steps := make([]*field.Field, numSteps)
	_ = field.ForEachStep(numSteps, func(s int) error { // Sample cannot fail
		steps[s] = Sample(f, g, t0+float32(s)*dt)
		return nil
	})
	return field.NewUnsteady(g, steps, dt)
}

// TaperedCylinder models unsteady flow past a tapered cylinder whose
// axis runs along Z: potential flow around the local cylinder section
// plus a von Karman street of shed vortices advecting downstream. The
// taper makes the shedding frequency vary along the span (Strouhal
// scaling St*U/d), which is what produces the paper's "interesting
// vortical and recirculation phenomena" — vortex dislocations between
// spanwise cells.
type TaperedCylinder struct {
	U0       float32 // free-stream speed along +X
	R0, R1   float32 // cylinder radius at z = 0 and z = Span
	Span     float32 // spanwise extent
	Strouhal float32 // shedding Strouhal number (0.2 is classic)
	Gamma    float32 // strength of shed vortices
	Wake     float32 // downstream spacing of street vortices, in diameters
}

// DefaultTaperedCylinder matches grid.DefaultTaperedCylinder geometry.
func DefaultTaperedCylinder() TaperedCylinder {
	return TaperedCylinder{
		U0: 1, R0: 1, R1: 0.5, Span: 16,
		Strouhal: 0.2, Gamma: 2.5, Wake: 4,
	}
}

// Name implements Flow.
func (tc TaperedCylinder) Name() string { return "tapered-cylinder" }

// radiusAt returns the local cylinder radius at spanwise position z,
// clamped to the span.
func (tc TaperedCylinder) radiusAt(z float32) float32 {
	fz := z / tc.Span
	if fz < 0 {
		fz = 0
	}
	if fz > 1 {
		fz = 1
	}
	return tc.R0 + (tc.R1-tc.R0)*fz
}

// VelocityAt implements Flow.
func (tc TaperedCylinder) VelocityAt(p vmath.Vec3, t float32) vmath.Vec3 {
	r := tc.radiusAt(p.Z)
	v := tc.potential(p, r)
	v = v.Add(tc.street(p, r, t))
	return v
}

// potential is 2-D potential flow around a cylinder of radius a in the
// local section plane, free stream U0 along +X.
func (tc TaperedCylinder) potential(p vmath.Vec3, a float32) vmath.Vec3 {
	x, y := float64(p.X), float64(p.Y)
	r2 := x*x + y*y
	a2 := float64(a * a)
	if r2 < a2 {
		// Inside the body: no flow.
		return vmath.Vec3{}
	}
	u0 := float64(tc.U0)
	// u =  U0 (1 - a^2 (x^2-y^2)/r^4),  v = -U0 a^2 2xy / r^4
	r4 := r2 * r2
	u := u0 * (1 - a2*(x*x-y*y)/r4)
	vv := -u0 * a2 * 2 * x * y / r4
	return vmath.Vec3{X: float32(u), Y: float32(vv)}
}

// street adds the shed vortex street: a staggered row of counter-
// rotating Lamb-Oseen vortices advecting downstream at ~0.85 U0. The
// local shedding frequency f = St*U0/(2a) depends on z through the
// taper, so vortex phase varies along the span.
func (tc TaperedCylinder) street(p vmath.Vec3, a float32, t float32) vmath.Vec3 {
	if p.X < 0 {
		// Street only exists downstream of the body.
		return vmath.Vec3{}
	}
	d := 2 * a
	freq := tc.Strouhal * tc.U0 / d
	adv := 0.85 * tc.U0
	spacing := tc.Wake * a
	// Phase of the street at this instant: vortices are born at the
	// cylinder at x ~ a with alternating sign every half period and
	// advect downstream.
	phase := float64(freq * t)
	var vel vmath.Vec3
	// Superpose the most recently shed vortices on each row. The
	// street is staggered: upper-row vortices shed at integer periods,
	// lower-row at half periods. Vortex m was shed at time m/freq and
	// has advected to x = a + adv*(t - m/freq).
	for n := -1; n <= 6; n++ {
		for row := 0; row < 2; row++ {
			idx := float64(n) + 0.5*float64(row)
			m := math.Floor(phase) - idx
			xc := a + adv*float32(float64(t)-m/float64(freq))
			if xc < a || xc > a+8*spacing {
				continue
			}
			sign := float32(1)
			yc := 0.6 * a
			if row == 1 {
				sign = -1
				yc = -0.6 * a
			}
			vel = vel.Add(lambOseen(p.X-xc, p.Y-yc, sign*tc.Gamma, 0.5*a))
		}
	}
	return vel
}

// lambOseen returns the in-plane velocity of a Lamb-Oseen vortex of
// circulation gamma and core radius rc at offset (dx, dy) from its
// center.
func lambOseen(dx, dy, gamma, rc float32) vmath.Vec3 {
	r2 := float64(dx*dx + dy*dy)
	if r2 < 1e-10 {
		return vmath.Vec3{}
	}
	g := float64(gamma) / (2 * math.Pi)
	core := 1 - math.Exp(-r2/float64(rc*rc))
	vt := g * core / r2 // tangential speed / r
	return vmath.Vec3{
		X: float32(-float64(dy) * vt),
		Y: float32(float64(dx) * vt),
	}
}

// ABC is the steady Arnold-Beltrami-Childress flow, a classic chaotic
// streamline test case on a periodic cube; time t phase-shifts it so
// unsteady code paths are exercised too.
type ABC struct {
	A, B, C float32
	Omega   float32 // temporal phase rate; 0 gives the steady ABC flow
}

// Name implements Flow.
func (f ABC) Name() string { return "abc" }

// VelocityAt implements Flow.
func (f ABC) VelocityAt(p vmath.Vec3, t float32) vmath.Vec3 {
	ph := float64(f.Omega * t)
	x, y, z := float64(p.X), float64(p.Y), float64(p.Z)
	return vmath.Vec3{
		X: float32(float64(f.A)*math.Sin(z+ph) + float64(f.C)*math.Cos(y+ph)),
		Y: float32(float64(f.B)*math.Sin(x+ph) + float64(f.A)*math.Cos(z+ph)),
		Z: float32(float64(f.C)*math.Sin(y+ph) + float64(f.B)*math.Cos(x+ph)),
	}
}

// Rankine is a single steady Rankine vortex around the Z axis, handy
// for closed-orbit streamline tests.
//
//vw:testonly
type Rankine struct {
	Gamma float32 // circulation
	Core  float32 // core radius
}

// Name implements Flow.
func (f Rankine) Name() string { return "rankine" }

// VelocityAt implements Flow.
func (f Rankine) VelocityAt(p vmath.Vec3, _ float32) vmath.Vec3 {
	r2 := float64(p.X*p.X + p.Y*p.Y)
	r := math.Sqrt(r2)
	if r < 1e-9 {
		return vmath.Vec3{}
	}
	var vt float64 // tangential speed
	g := float64(f.Gamma) / (2 * math.Pi)
	if r < float64(f.Core) {
		vt = g * r / float64(f.Core*f.Core)
	} else {
		vt = g / r
	}
	return vmath.Vec3{
		X: float32(-float64(p.Y) / r * vt),
		Y: float32(float64(p.X) / r * vt),
	}
}
