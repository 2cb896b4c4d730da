package flow

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

func TestUniform(t *testing.T) {
	u := Uniform{Velocity: vmath.V3(1, 2, 3)}
	if got := u.VelocityAt(vmath.V3(9, 9, 9), 42); got != vmath.V3(1, 2, 3) {
		t.Errorf("uniform velocity = %v", got)
	}
}

func TestTaperedCylinderNoFlowInsideBody(t *testing.T) {
	tc := DefaultTaperedCylinder()
	for _, z := range []float32{0, 8, 16} {
		r := tc.radiusAt(z)
		p := vmath.V3(0.3*r, 0.3*r, z)
		got := tc.potential(p, r)
		if got != (vmath.Vec3{}) {
			t.Errorf("flow inside body at z=%v: %v", z, got)
		}
	}
}

func TestTaperedCylinderFreeStreamFarField(t *testing.T) {
	tc := DefaultTaperedCylinder()
	// Far upstream and far to the side, velocity approaches U0 x-hat.
	for _, p := range []vmath.Vec3{
		vmath.V3(-500, 0, 8), vmath.V3(0, 500, 8), vmath.V3(-300, 300, 2),
	} {
		v := tc.VelocityAt(p, 1.0)
		if v.Sub(vmath.V3(tc.U0, 0, 0)).Len() > 0.02*tc.U0 {
			t.Errorf("far field at %v = %v, want ~(%v,0,0)", p, v, tc.U0)
		}
	}
}

func TestTaperedCylinderStagnation(t *testing.T) {
	tc := DefaultTaperedCylinder()
	// The front stagnation point (-R0, 0, 0) has ~zero potential
	// velocity (street vortices live downstream only).
	v := tc.VelocityAt(vmath.V3(-tc.R0, 0, 0), 0)
	if v.Len() > 0.05*tc.U0 {
		t.Errorf("stagnation point velocity = %v", v)
	}
}

func TestTaperedCylinderUnsteadyWake(t *testing.T) {
	tc := DefaultTaperedCylinder()
	// The wake velocity at a fixed probe changes over a shedding
	// period — the flow must be genuinely unsteady.
	probe := vmath.V3(4*tc.R0, 0.5*tc.R0, 0)
	period := 2 * tc.R0 / (tc.Strouhal * tc.U0)
	v0 := tc.VelocityAt(probe, 0)
	varied := false
	for i := 1; i <= 8; i++ {
		v := tc.VelocityAt(probe, float32(i)*period/8)
		if v.Sub(v0).Len() > 0.05*tc.U0 {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("wake probe velocity constant over a shedding period")
	}
}

func TestTaperedCylinderSpanwisePhaseVariation(t *testing.T) {
	tc := DefaultTaperedCylinder()
	// Because the radius tapers, shedding frequency differs along the
	// span, so two spanwise stations decorrelate over time.
	pA := vmath.V3(4, 0.5, 1)
	pB := vmath.V3(4, 0.5, 15)
	same := true
	for _, tt := range []float32{3, 6, 9, 12} {
		va := tc.VelocityAt(pA, tt)
		vb := tc.VelocityAt(pB, tt)
		if va.Sub(vb).Len() > 0.05 {
			same = false
			break
		}
	}
	if same {
		t.Error("no spanwise variation in the shed wake")
	}
}

func TestABCIncompressibleDivergence(t *testing.T) {
	// ABC flow is divergence-free; check numerically at random points.
	f := ABC{A: 1, B: 0.7, C: 0.43, Omega: 0}
	rng := rand.New(rand.NewSource(5))
	const h = 1e-3
	for n := 0; n < 50; n++ {
		p := vmath.V3(rng.Float32()*6, rng.Float32()*6, rng.Float32()*6)
		div := (f.VelocityAt(p.Add(vmath.V3(h, 0, 0)), 0).X-f.VelocityAt(p.Sub(vmath.V3(h, 0, 0)), 0).X)/(2*h) +
			(f.VelocityAt(p.Add(vmath.V3(0, h, 0)), 0).Y-f.VelocityAt(p.Sub(vmath.V3(0, h, 0)), 0).Y)/(2*h) +
			(f.VelocityAt(p.Add(vmath.V3(0, 0, h)), 0).Z-f.VelocityAt(p.Sub(vmath.V3(0, 0, h)), 0).Z)/(2*h)
		if absf(div) > 2e-2 {
			t.Fatalf("divergence at %v = %v", p, div)
		}
	}
}

func TestTaylorGreenDecay(t *testing.T) {
	f := TaylorGreen{Nu: 0.1}
	p := vmath.V3(0.7, 1.1, 0)
	v0 := f.VelocityAt(p, 0).Len()
	v1 := f.VelocityAt(p, 5).Len()
	wantRatio := float32(math.Exp(-2 * 0.1 * 5))
	if absf(v1/v0-wantRatio) > 1e-4 {
		t.Errorf("decay ratio = %v, want %v", v1/v0, wantRatio)
	}
}

func TestRankineVortexTangential(t *testing.T) {
	f := Rankine{Gamma: 2 * math.Pi, Core: 0.5}
	// Outside the core, |v| = Gamma/(2 pi r) = 1/r; velocity is
	// perpendicular to the radius.
	p := vmath.V3(2, 0, 0)
	v := f.VelocityAt(p, 0)
	if absf(v.Len()-0.5) > 1e-5 {
		t.Errorf("|v| at r=2 is %v, want 0.5", v.Len())
	}
	if absf(v.Dot(p)) > 1e-5 {
		t.Errorf("velocity not tangential: v.r = %v", v.Dot(p))
	}
	// Inside the core, solid-body rotation: |v| proportional to r.
	vin := f.VelocityAt(vmath.V3(0.25, 0, 0), 0)
	if absf(vin.Len()-1) > 1e-5 { // g*r/core^2 = 1*0.25/0.25 = 1
		t.Errorf("core |v| = %v, want 1", vin.Len())
	}
}

func TestSampleMatchesPointwise(t *testing.T) {
	g, err := grid.NewCartesian(5, 5, 5, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(6, 6, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := ABC{A: 1, B: 1, C: 1}
	fld := Sample(f, g, 2.0)
	if fld.Coords != field.Physical {
		t.Error("sampled field not physical")
	}
	for _, node := range [][3]int{{0, 0, 0}, {2, 3, 4}, {4, 4, 4}} {
		want := f.VelocityAt(g.At(node[0], node[1], node[2]), 2.0)
		got := fld.At(node[0], node[1], node[2])
		if !got.ApproxEqual(want, 1e-6) {
			t.Errorf("node %v = %v, want %v", node, got, want)
		}
	}
}

func TestSampleUnsteady(t *testing.T) {
	g, _ := grid.NewCartesian(4, 4, 4, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(3, 3, 3),
	})
	u, err := SampleUnsteady(TaylorGreen{Nu: 0.2}, g, 5, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSteps() != 5 {
		t.Fatalf("NumSteps = %d", u.NumSteps())
	}
	// Successive timesteps must decay.
	p0 := u.Steps[0].At(1, 2, 0).Len()
	p4 := u.Steps[4].At(1, 2, 0).Len()
	if p4 >= p0 {
		t.Errorf("no decay across timesteps: %v -> %v", p0, p4)
	}
	if _, err := SampleUnsteady(TaylorGreen{}, g, 0, 0, 0.5); err == nil {
		t.Error("zero timesteps accepted")
	}
}

func TestSampledFieldsAreFinite(t *testing.T) {
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 16, NJ: 16, NK: 8, R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fld := Sample(DefaultTaperedCylinder(), g, 7.3)
	if err := fld.Validate(); err != nil {
		t.Fatal(err)
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkTaperedCylinderVelocityAt(b *testing.B) {
	tc := DefaultTaperedCylinder()
	p := vmath.V3(3, 1, 5)
	var sink vmath.Vec3
	for i := 0; i < b.N; i++ {
		sink = tc.VelocityAt(p, float32(i)*0.01)
	}
	_ = sink
}

func BenchmarkSampleTimestep(b *testing.B) {
	g, _ := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 32, NJ: 32, NK: 16, R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	tc := DefaultTaperedCylinder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sample(tc, g, float32(i))
	}
}

// Uniform is a constant free-stream flow.
type Uniform struct {
	Velocity vmath.Vec3
}

// VelocityAt implements Flow.
func (u Uniform) VelocityAt(vmath.Vec3, float32) vmath.Vec3 { return u.Velocity }

// Name implements Flow.
func (u Uniform) Name() string { return "uniform" }

// TaylorGreen is the decaying Taylor-Green vortex, an exact
// Navier-Stokes solution used to validate the solver substrate.
type TaylorGreen struct {
	Nu float32 // kinematic viscosity
}

// Name implements Flow.
func (f TaylorGreen) Name() string { return "taylor-green" }

// VelocityAt implements Flow. The 2-D (x, y) Taylor-Green field
// extended uniformly in z, with viscous decay exp(-2 nu t).
func (f TaylorGreen) VelocityAt(p vmath.Vec3, t float32) vmath.Vec3 {
	decay := math.Exp(-2 * float64(f.Nu) * float64(t))
	x, y := float64(p.X), float64(p.Y)
	return vmath.Vec3{
		X: float32(math.Cos(x) * math.Sin(y) * decay),
		Y: float32(-math.Sin(x) * math.Cos(y) * decay),
	}
}
