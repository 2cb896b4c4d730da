package solver

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/vmath"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 8, 8, 0.1, 0.01, WindTunnelBounds); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := New(8, 8, 8, 0, 0.01, WindTunnelBounds); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := New(8, 8, 8, 0.1, -1, WindTunnelBounds); err == nil {
		t.Error("negative viscosity accepted")
	}
}

func TestProjectionReducesDivergence(t *testing.T) {
	s, err := New(16, 16, 16, 1.0/16, 0, periodicBounds)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a divergent field with zero mean divergence (the periodic
	// Poisson compatibility condition). The collocated central-
	// difference projection has a per-mode removal floor of
	// (1 - cos kh)/2, so use a low-frequency mode (2 wavelengths
	// across the box, floor ~15%) and enough Jacobi iterations to
	// actually solve the Poisson equation for it.
	s.PressureIters = 200
	L := s.DomainSize().X
	s.SetVelocity(func(p vmath.Vec3) vmath.Vec3 {
		return vmath.V3(float32(math.Sin(4*math.Pi*float64(p.X/L))), 0, 0)
	})
	before := s.divergence()
	s.project(0.1)
	after := s.divergence()
	if after > before/4 {
		t.Errorf("projection weak: divergence %v -> %v", before, after)
	}
}

func TestTaylorGreenEnergyDecay(t *testing.T) {
	// The 2-D Taylor-Green vortex on a periodic box decays with
	// KE(t) = KE(0) exp(-4 nu t). Run a short simulation and compare
	// against the exact decay rate within tolerance.
	const n = 24
	nu := float32(0.05)
	h := float32(2 * math.Pi / n)
	s, err := New(n, n, n, h, nu, periodicBounds)
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(p vmath.Vec3) vmath.Vec3 {
		return vmath.Vec3{
			X: float32(math.Cos(float64(p.X)) * math.Sin(float64(p.Y))),
			Y: float32(-math.Sin(float64(p.X)) * math.Cos(float64(p.Y))),
		}
	})
	ke0 := s.KineticEnergy()
	var elapsed float32
	prev := ke0
	for step := 0; step < 20; step++ {
		dt := s.CFLStep(0.8)
		s.Step(dt)
		elapsed += dt
		ke := s.KineticEnergy()
		if ke > prev*1.001 {
			t.Fatalf("kinetic energy grew at step %d: %v -> %v", step, prev, ke)
		}
		prev = ke
	}
	ke := s.KineticEnergy()
	want := ke0 * math.Exp(-4*float64(nu)*float64(elapsed))
	ratio := ke / want
	// Semi-Lagrangian advection adds numerical dissipation on top of
	// the viscous rate, so measured energy sits below the exact decay;
	// it must never sit above it, and must stay the dominant fraction.
	if ratio > 1.05 || ratio < 0.35 {
		t.Errorf("KE after t=%v: %v, exact %v (ratio %v)", elapsed, ke, want, ratio)
	}
}

func TestSolidCellsStayZero(t *testing.T) {
	s, err := New(16, 12, 8, 0.25, 0.001, WindTunnelBounds)
	if err != nil {
		t.Fatal(err)
	}
	s.InflowU = 1
	s.AddTaperedCylinder(2, 1.5, 0.6, 0.3)
	var solidCount int
	for _, sol := range s.Solid {
		if sol {
			solidCount++
		}
	}
	if solidCount == 0 {
		t.Fatal("no solid cells marked")
	}
	s.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(1, 0, 0) })
	for i := 0; i < 5; i++ {
		s.Step(s.CFLStep(0.5))
	}
	for n, sol := range s.Solid {
		if sol && (s.U[n] != 0 || s.V[n] != 0 || s.W[n] != 0) {
			t.Fatalf("solid cell %d has velocity (%v,%v,%v)", n, s.U[n], s.V[n], s.W[n])
		}
	}
}

func TestUniformInflowStaysBounded(t *testing.T) {
	s, err := New(24, 12, 8, 0.25, 0.002, WindTunnelBounds)
	if err != nil {
		t.Fatal(err)
	}
	s.InflowU = 1
	s.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(1, 0, 0) })
	for i := 0; i < 20; i++ {
		s.Step(s.CFLStep(0.5))
	}
	if m := s.maxSpeed(); m > 2 || math.IsNaN(float64(m)) {
		t.Errorf("flow unstable: max speed %v", m)
	}
	// Interior speed should stay near the inflow speed without body.
	mid := s.idx(12, 6, 4)
	if absf(s.U[mid]-1) > 0.3 {
		t.Errorf("interior u = %v, want ~1", s.U[mid])
	}
}

func TestCylinderDeflectsFlow(t *testing.T) {
	s, err := New(32, 16, 8, 0.25, 0.002, WindTunnelBounds)
	if err != nil {
		t.Fatal(err)
	}
	s.InflowU = 1
	s.AddTaperedCylinder(2.5, 2, 0.7, 0.5)
	s.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(1, 0, 0) })
	for i := 0; i < 30; i++ {
		s.Step(s.CFLStep(0.5))
	}
	// The flow above the cylinder accelerates past the inflow speed
	// (continuity) and transverse velocity appears.
	above := s.idx(10, 13, 4)
	if s.U[above] <= 1.0 {
		t.Errorf("no acceleration over body: u = %v", s.U[above])
	}
	var maxV float32
	for _, v := range s.V {
		if absf(v) > maxV {
			maxV = absf(v)
		}
	}
	if maxV < 0.05 {
		t.Errorf("no transverse deflection: max |v| = %v", maxV)
	}
}

func TestCFLStepLimits(t *testing.T) {
	s, _ := New(8, 8, 8, 0.1, 0.01, periodicBounds)
	s.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(10, 0, 0) })
	dt := s.CFLStep(0.5)
	if dt > 0.5*0.1/10+1e-6 {
		t.Errorf("CFL step %v exceeds advective limit", dt)
	}
	if dLim := 0.1 * 0.1 / (6 * 0.01); dt > float32(dLim) {
		t.Errorf("CFL step %v exceeds diffusive limit %v", dt, dLim)
	}
}

func TestFieldOnGrid(t *testing.T) {
	s, err := New(16, 16, 8, 0.5, 0, WindTunnelBounds)
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(p vmath.Vec3) vmath.Vec3 { return vmath.V3(2, 0, 0) })
	g, err := grid.NewCartesian(8, 8, 4, vmath.AABB{
		Min: vmath.V3(1, 1, 1), Max: vmath.V3(6, 6, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := s.FieldOn(g)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.At(4, 4, 2); !got.ApproxEqual(vmath.V3(2, 0, 0), 1e-4) {
		t.Errorf("sampled interior velocity = %v", got)
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkSolverStep(b *testing.B) {
	s, _ := New(24, 16, 8, 0.25, 0.002, WindTunnelBounds)
	s.InflowU = 1
	s.AddTaperedCylinder(2, 2, 0.6, 0.3)
	s.SetVelocity(func(vmath.Vec3) vmath.Vec3 { return vmath.V3(1, 0, 0) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0.05)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Slab parallelism must be bit-identical to serial execution:
	// every sweep writes each cell exactly once from its own slab.
	mk := func() *Solver {
		s, err := New(20, 16, 12, 0.25, 0.003, WindTunnelBounds)
		if err != nil {
			t.Fatal(err)
		}
		s.InflowU = 1
		s.AddTaperedCylinder(2, 2, 0.6, 0.3)
		s.SetVelocity(func(p vmath.Vec3) vmath.Vec3 {
			return vmath.V3(1, 0.1*p.Y, 0)
		})
		return s
	}
	serial := mk()
	parallel := mk()
	parallel.SetWorkers(4)
	for step := 0; step < 5; step++ {
		dt := serial.CFLStep(0.5)
		serial.Step(dt)
		parallel.Step(dt)
	}
	for n := range serial.U {
		if serial.U[n] != parallel.U[n] || serial.V[n] != parallel.V[n] || serial.W[n] != parallel.W[n] {
			t.Fatalf("cell %d differs: serial (%v,%v,%v) parallel (%v,%v,%v)",
				n, serial.U[n], serial.V[n], serial.W[n],
				parallel.U[n], parallel.V[n], parallel.W[n])
		}
	}
}

func TestSetWorkersClamps(t *testing.T) {
	s, _ := New(8, 8, 8, 0.1, 0, periodicBounds)
	s.SetWorkers(-3)
	s.SetWorkers(1000) // > NZ: clamped, must not panic
	s.SetWorkers(runtime.GOMAXPROCS(0))
	s.Step(0.01)
}

// KineticEnergy returns the total kinetic energy (0.5 sum |u|^2 h^3),
// used by Taylor-Green validation.
func (s *Solver) KineticEnergy() float64 {
	var sum float64
	for i := range s.U {
		sum += float64(s.U[i]*s.U[i] + s.V[i]*s.V[i] + s.W[i]*s.W[i])
	}
	h3 := float64(s.H) * float64(s.H) * float64(s.H)
	return 0.5 * sum * h3
}
