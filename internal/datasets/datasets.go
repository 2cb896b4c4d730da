// Package datasets generates complete windtunnel datasets — the role
// of the CFD pipeline that fed the paper's system. Two generators are
// provided: the analytic shedding model (fast, any resolution) and the
// Navier-Stokes solver (a genuine simulation around an immersed
// tapered cylinder). Both produce grid-coordinate unsteady fields
// ready for the server.
//
//vw:deterministic
package datasets

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/solver"
	"repro/internal/vmath"
)

// Spec sizes a tapered-cylinder dataset.
type Spec struct {
	NI, NJ, NK int
	NumSteps   int
	DT         float32
}

// Validate reports sizing errors.
func (s Spec) Validate() error {
	if s.NI < 2 || s.NJ < 2 || s.NK < 2 {
		return fmt.Errorf("datasets: grid %dx%dx%d too small", s.NI, s.NJ, s.NK)
	}
	if s.NumSteps < 1 {
		return fmt.Errorf("datasets: need at least one timestep")
	}
	if s.DT <= 0 {
		return fmt.Errorf("datasets: non-positive dt %g", s.DT)
	}
	return nil
}

// cylinderGrid builds the standard O-grid for a spec.
func cylinderGrid(s Spec) (*grid.Grid, error) {
	return grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: s.NI, NJ: s.NJ, NK: s.NK,
		R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
}

// AnalyticPhysical builds the dataset from the analytic vortex-street
// model, leaving velocities in physical coordinates (the form solvers
// emit and PLOT3D files store).
func AnalyticPhysical(s Spec) (*field.Unsteady, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := cylinderGrid(s)
	if err != nil {
		return nil, err
	}
	return flow.SampleUnsteady(flow.DefaultTaperedCylinder(), g, s.NumSteps, 0, s.DT)
}

// Analytic builds the analytic dataset converted to grid coordinates,
// ready for the server. Steps are sampled and converted on every core,
// and the conversion is in place, so the dataset is held once.
func Analytic(s Spec) (*field.Unsteady, error) {
	u, err := AnalyticPhysical(s)
	if err != nil {
		return nil, err
	}
	if err := u.ToGridCoords(); err != nil {
		return nil, err
	}
	return u, nil
}

// SolverOptions tunes the Navier-Stokes generator.
type SolverOptions struct {
	// Resolution is the solver's cell count along X; Y and Z scale
	// proportionally. 0 uses 48.
	Resolution int
	// SpinupSteps develops the wake before the first snapshot; 0 uses
	// 60.
	SpinupSteps int
	// Workers parallelizes the solver sweeps; 0 runs serially.
	Workers int
	// Progress, if set, receives per-snapshot notifications.
	Progress func(step, total int)
}

// Solver builds the dataset by integrating the Navier-Stokes equations
// around an immersed tapered cylinder and sampling snapshots onto the
// curvilinear grid, converted to grid coordinates in place.
//
//vw:testonly
func Solver(s Spec, opts SolverOptions) (*field.Unsteady, error) {
	u, err := SolverPhysical(s, opts)
	if err != nil {
		return nil, err
	}
	if err := u.ToGridCoords(); err != nil {
		return nil, err
	}
	return u, nil
}

// SolverPhysical is Solver without the grid-coordinate conversion.
func SolverPhysical(s Spec, opts SolverOptions) (*field.Unsteady, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := cylinderGrid(s)
	if err != nil {
		return nil, err
	}
	res := opts.Resolution
	if res == 0 {
		res = 48
	}
	spinup := opts.SpinupSteps
	if spinup == 0 {
		spinup = 60
	}
	sim, err := solver.New(res, res*2/3, res/4, 38.4/float32(res), 0.005, solver.WindTunnelBounds)
	if err != nil {
		return nil, err
	}
	if opts.Workers > 0 {
		sim.SetWorkers(opts.Workers)
	}
	sim.InflowU = 1
	// The grid's cylinder axis is at the origin; the solver's domain
	// starts at (0,0,0), so sampling happens through this offset.
	offset := vmath.Vec3{
		X: sim.DomainSize().X * 0.3,
		Y: sim.DomainSize().Y * 0.5,
	}
	sim.AddTaperedCylinder(offset.X, offset.Y, 1, 0.5)
	sim.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(1, 0, 0) })

	for i := 0; i < spinup; i++ {
		sim.Step(sim.CFLStep(0.7))
	}

	shifted, err := grid.New(g.NI, g.NJ, g.NK)
	if err != nil {
		return nil, err
	}
	for i := range g.X {
		shifted.X[i] = g.X[i] + offset.X
		shifted.Y[i] = g.Y[i] + offset.Y
		shifted.Z[i] = g.Z[i] + offset.Z
	}

	steps := make([]*field.Field, 0, s.NumSteps)
	for n := 0; n < s.NumSteps; n++ {
		var advanced float32
		for advanced < s.DT {
			h := sim.CFLStep(0.7)
			if advanced+h > s.DT {
				h = s.DT - advanced
			}
			sim.Step(h)
			advanced += h
		}
		snap := sim.FieldOn(shifted)
		if err := snap.Validate(); err != nil {
			return nil, fmt.Errorf("datasets: solver snapshot %d: %w", n, err)
		}
		steps = append(steps, snap)
		if opts.Progress != nil {
			opts.Progress(n+1, s.NumSteps)
		}
	}
	return field.NewUnsteady(g, steps, s.DT)
}
