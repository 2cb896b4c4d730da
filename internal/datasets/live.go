package datasets

import (
	"fmt"
	"sync"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/vmath"
)

// Steering is the set of flow parameters a workstation can change
// while the solver runs: the CAVE-steering idea applied to the
// windtunnel. Taper is the tip/base radius ratio of the immersed
// cylinder (the seed geometry is r1/r0 = 0.5).
type Steering struct {
	InflowU  float32 // inlet velocity along +X
	Reynolds float32 // Re = InflowU * D / nu with D the base diameter
	Taper    float32 // tip radius as a fraction of the base radius
}

// SteerSource reports the parameters the producer should run with and
// a version that increments on every accepted change. The producer
// applies a change only when the version moves, so a frozen source
// (version stuck at 0) leaves the solver on its construction-time
// parameters — the differential battery's byte-identity hinge.
type SteerSource func() (Steering, uint64)

// LiveOptions tunes the in-situ producer.
type LiveOptions struct {
	// Solver configures the embedded Navier-Stokes run exactly like the
	// offline generator.
	Solver SolverOptions
	// Window bounds the ring's history (steps kept behind the head for
	// particle paths/streaklines). 0 keeps every step up to the horizon.
	Window int
}

// cylBaseR0 and cylBaseDiam fix the steering geometry to the seed
// dataset's cylinder: base radius 1, so Re = U*2/nu.
const (
	cylBaseR0   = float32(1)
	cylBaseDiam = float32(2)
)

// DefaultSteer returns the parameters the solver is constructed with:
// InflowU 1, nu 0.005 → Re = 1*2/0.005 = 400, taper 0.5. Applying
// these through the steering path is a bit-exact no-op.
func DefaultSteer() Steering {
	return Steering{InflowU: 1, Reynolds: 400, Taper: 0.5}
}

// Live couples the Navier-Stokes solver to a timestep ring: the
// in-situ producer. Construction mirrors SolverPhysical exactly —
// same solver, cylinder, spinup, CFL sub-stepping, snapshot sampling,
// grid-coordinate conversion — so a live run with frozen steering is
// bit-identical to a dataset generated offline from the same Spec.
type Live struct {
	spec Spec
	g    *grid.Grid
	ring *store.Ring

	mu      sync.Mutex
	sim     *solver.Solver
	shifted *grid.Grid
	offset  vmath.Vec3

	steer        SteerSource
	steerVersion uint64
	applied      []Steering // bounded log of applied changes, for audits
}

// NewLive builds the in-situ producer: it spins up the solver exactly
// like SolverPhysical, then exposes a ring that produces steps on
// demand as the server asks for them.
func NewLive(s Spec, opts LiveOptions) (*Live, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := cylinderGrid(s)
	if err != nil {
		return nil, err
	}
	res := opts.Solver.Resolution
	if res == 0 {
		res = 48
	}
	spinup := opts.Solver.SpinupSteps
	if spinup == 0 {
		spinup = 60
	}
	sim, err := solver.New(res, res*2/3, res/4, 38.4/float32(res), 0.005, solver.WindTunnelBounds)
	if err != nil {
		return nil, err
	}
	if opts.Solver.Workers > 0 {
		sim.SetWorkers(opts.Solver.Workers)
	}
	sim.InflowU = 1
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

	window := opts.Window
	if window <= 0 {
		window = s.NumSteps
	}
	ring, err := store.NewRing(g, s.DT, window, s.NumSteps)
	if err != nil {
		return nil, err
	}
	l := &Live{
		spec: s, g: g, ring: ring,
		sim: sim, shifted: shifted, offset: offset,
	}
	ring.SetProducer(l.produceTo)
	return l, nil
}

// Ring returns the live store to hand to the server.
func (l *Live) Ring() *store.Ring { return l.ring }

// Grid returns the dataset grid.
func (l *Live) Grid() *grid.Grid { return l.g }

// SetSteerSource attaches the steering parameter source the producer
// polls before each timestep.
func (l *Live) SetSteerSource(src SteerSource) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.steer = src
}

// AppliedSteer returns the parameter sets the producer has applied so
// far, in application order. The chaos battery uses it to check a
// change is never torn: every entry must be a complete triple some
// client sent, never a mix of two.
func (l *Live) AppliedSteer() []Steering {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Steering, len(l.applied))
	copy(out, l.applied)
	return out
}

// applySteerLocked folds a pending steering change into the solver.
// All three parameters land atomically between timesteps — a change
// can be delayed by in-flight compute but never half-applied.
func (l *Live) applySteerLocked() {
	if l.steer == nil {
		return
	}
	p, version := l.steer()
	if version == l.steerVersion {
		return
	}
	l.steerVersion = version
	l.sim.InflowU = p.InflowU
	l.sim.Nu = p.InflowU * cylBaseDiam / p.Reynolds
	l.sim.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(p.InflowU, 0, 0) })
	l.sim.SetTaperedCylinder(l.offset.X, l.offset.Y, cylBaseR0, cylBaseR0*p.Taper)
	if len(l.applied) < 4096 {
		l.applied = append(l.applied, p)
	}
}

// produceTo advances the solver until the ring's head reaches the
// requested step, sealing one grid-coordinate snapshot per DT. It is
// the ring's producer callback; l.mu serializes concurrent callers so
// steps seal strictly in order.
func (l *Live) produceTo(upto int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.ring.Head() < upto {
		l.applySteerLocked()
		var advanced float32
		for advanced < l.spec.DT {
			h := l.sim.CFLStep(0.7)
			if advanced+h > l.spec.DT {
				h = l.spec.DT - advanced
			}
			l.sim.Step(h)
			advanced += h
		}
		snap := l.sim.FieldOn(l.shifted)
		if err := snap.Validate(); err != nil {
			return fmt.Errorf("datasets: live snapshot %d: %w", l.ring.Head()+1, err)
		}
		// Convert in place: Publish copies the snapshot into a ring slot.
		if err := field.ToGridCoords(snap, l.g); err != nil {
			return fmt.Errorf("datasets: live snapshot %d: %w", l.ring.Head()+1, err)
		}
		if _, err := l.ring.Publish(snap); err != nil {
			return err
		}
	}
	return nil
}
