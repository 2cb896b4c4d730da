package integrate

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// identityGrid returns a Cartesian grid whose physical coordinates
// equal its grid coordinates, so analytic flows can be checked
// directly in grid space.
func identityGrid(t testing.TB, n int) *grid.Grid {
	t.Helper()
	g, err := grid.NewCartesian(n, n, n, vmath.AABB{
		Min: vmath.V3(0, 0, 0),
		Max: vmath.V3(float32(n-1), float32(n-1), float32(n-1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// uniform is a steady field with velocity v at every node: a sample
// anywhere is exactly v.
func uniform(g *grid.Grid, v vmath.Vec3) SteadySampler {
	f := field.NewField(g.NI, g.NJ, g.NK, field.GridCoords)
	for i := range f.U {
		f.U[i], f.V[i], f.W[i] = v.X, v.Y, v.Z
	}
	return SteadySampler{F: f, G: g}
}

// circularSampler rotates around the center of the grid in the XY
// plane with unit angular velocity: v = omega x (p - center).
type circularSampler struct{ center vmath.Vec3 }

func (c circularSampler) SampleVelocity(gc vmath.Vec3, _ float32) vmath.Vec3 {
	d := gc.Sub(c.center)
	return vmath.V3(-d.Y, d.X, 0)
}

func TestStepEulerConstField(t *testing.T) {
	g := identityGrid(t, 8)
	s := uniform(g, vmath.V3(1, 2, 0))
	got := step(Euler, s, vmath.V3(1, 1, 1), 0, 0.5)
	if !got.ApproxEqual(vmath.V3(1.5, 2, 1), 1e-6) {
		t.Errorf("Euler step = %v", got)
	}
}

func TestStepOrdersAgreeOnConstField(t *testing.T) {
	// On a constant field every scheme is exact and identical.
	g := identityGrid(t, 8)
	s := uniform(g, vmath.V3(0.3, -0.2, 0.1))
	start := vmath.V3(3, 3, 3)
	e := step(Euler, s, start, 0, 1)
	r2 := step(RK2, s, start, 0, 1)
	r4 := step(RK4, s, start, 0, 1)
	if !e.ApproxEqual(r2, 1e-6) || !e.ApproxEqual(r4, 1e-6) {
		t.Errorf("schemes disagree on constant field: %v %v %v", e, r2, r4)
	}
}

func TestRK2MoreAccurateThanEulerOnRotation(t *testing.T) {
	center := vmath.V3(16, 16, 16)
	s := circularSampler{center}
	start := vmath.V3(20, 16, 16) // radius 4
	h := float32(0.1)
	steps := int(2 * math.Pi / float64(h)) // one revolution

	radiusErr := func(m Method) float32 {
		gc := start
		for i := 0; i < steps; i++ {
			gc = step(m, s, gc, 0, h)
		}
		return absf(gc.Sub(center).Len() - 4)
	}
	eErr, r2Err, r4Err := radiusErr(Euler), radiusErr(RK2), radiusErr(RK4)
	if r2Err >= eErr {
		t.Errorf("RK2 error %v not better than Euler %v", r2Err, eErr)
	}
	if r4Err >= r2Err {
		t.Errorf("RK4 error %v not better than RK2 %v", r4Err, r2Err)
	}
}

// TestSchemeDriftOnRankineVortex backs the paper's choice of RK2: one
// revolution around a Rankine vortex sampled on a grid, where the exact
// path is a closed circle, leaves Euler far off the circle and RK4 no
// closer than RK2 at an interactive step size.
func TestSchemeDriftOnRankineVortex(t *testing.T) {
	// Identity Cartesian grid so grid coords == physical coords.
	n := 65
	g, err := grid.NewCartesian(n, n, 5, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(float32(n-1), float32(n-1), 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	center := vmath.V3(32, 32, 0)
	f := field.NewField(n, n, 5, field.GridCoords)
	rank := flow.Rankine{Gamma: 2 * math.Pi * 4, Core: 2}
	for k := 0; k < 5; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				p := vmath.V3(float32(i), float32(j), 0).Sub(center)
				f.SetAt(i, j, k, rank.VelocityAt(p, 0))
			}
		}
	}
	sampler := SteadySampler{F: f, G: g}

	const radius = 12.0
	seed := center.Add(vmath.V3(radius, 0, 2))
	// Angular speed at r=12: v = Gamma/(2 pi r) = 4/12; period = 2 pi r / v.
	period := 2 * math.Pi * radius / (4.0 / radius)
	h := float32(0.5)
	steps := int(period / float64(h))

	drift := func(m Method) float64 {
		gc := seed
		for s := 0; s < steps; s++ {
			gc = step(m, sampler, gc, 0, h)
		}
		return math.Abs(float64(gc.Sub(center).Len()) - radius)
	}
	euler, rk2, rk4 := drift(Euler), drift(RK2), drift(RK4)
	if rk2 >= euler {
		t.Errorf("RK2 drift %v not better than Euler %v", rk2, euler)
	}
	if rk4 > rk2 {
		t.Errorf("RK4 drift %v worse than RK2 %v", rk4, rk2)
	}
}

func TestStreamlineConstFieldStraightLine(t *testing.T) {
	g := identityGrid(t, 16)
	s := uniform(g, vmath.V3(1, 0, 0))
	o := Options{Method: RK2, StepSize: 1, MaxSteps: 100}
	path := Streamline(s, vmath.V3(2, 8, 8), 0, o)
	// Starts at x=2, exits the domain at x=15: points at x=2..15.
	if len(path) != 14 {
		t.Fatalf("path length = %d, want 14", len(path))
	}
	for i, p := range path {
		want := vmath.V3(2+float32(i), 8, 8)
		if !p.ApproxEqual(want, 1e-5) {
			t.Fatalf("point %d = %v, want %v", i, p, want)
		}
	}
}

func TestStreamlineMaxStepsRespected(t *testing.T) {
	g := identityGrid(t, 64)
	s := uniform(g, vmath.V3(0.01, 0, 0))
	o := Options{Method: RK2, StepSize: 0.05, MaxSteps: 200}
	path := Streamline(s, vmath.V3(40, 32, 32), 0, o)
	if len(path) != 201 { // seed + MaxSteps
		t.Errorf("path length = %d, want 201", len(path))
	}
}

func TestStreamlineStagnationStops(t *testing.T) {
	g := identityGrid(t, 8)
	s := uniform(g, vmath.Vec3{})
	o := DefaultOptions()
	path := Streamline(s, vmath.V3(4, 4, 4), 0, o)
	if len(path) != 1 {
		t.Errorf("stagnant path length = %d, want 1 (seed only)", len(path))
	}
}

func TestStreamlineSeedOutOfBounds(t *testing.T) {
	g := identityGrid(t, 8)
	s := uniform(g, vmath.V3(1, 0, 0))
	path := Streamline(s, vmath.V3(-5, 0, 0), 0, DefaultOptions())
	if len(path) != 0 {
		t.Errorf("out-of-bounds seed produced %d points", len(path))
	}
}

func TestStreamlineBackward(t *testing.T) {
	g := identityGrid(t, 16)
	s := uniform(g, vmath.V3(1, 0, 0))
	o := Options{Method: RK2, StepSize: -1, MaxSteps: 100}
	path := Streamline(s, vmath.V3(10, 8, 8), 0, o)
	if len(path) < 2 {
		t.Fatalf("backward path too short: %d", len(path))
	}
	if path[len(path)-1].X >= path[0].X {
		t.Errorf("backward integration moved forward: %v -> %v", path[0], path[len(path)-1])
	}
}

// timeRamp is an unsteady field whose velocity at time t is exactly
// (t, 0, 0) for t in [0, levels-1]: particle paths accelerate,
// streamlines at fixed t are straight with speed t.
func timeRamp(t *testing.T, g *grid.Grid, levels int) UnsteadySampler {
	steps := make([]*field.Field, levels)
	for l := range steps {
		steps[l] = uniform(g, vmath.V3(float32(l), 0, 0)).F
	}
	u, err := field.NewUnsteady(g, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	return UnsteadySampler{U: u}
}

func TestParticlePathUsesTime(t *testing.T) {
	g := identityGrid(t, 64)
	s := timeRamp(t, g, 8)
	o := Options{Method: RK2, StepSize: 1, MaxSteps: 5}
	path := ParticlePath(s, vmath.V3(1, 32, 32), 0, 100, o)
	// x(t) = 1 + t^2/2 exactly; RK2 midpoint is exact for linear-in-t.
	want := []float32{1, 1.5, 3, 5.5, 9, 13.5}
	if len(path) != len(want) {
		t.Fatalf("path length = %d, want %d", len(path), len(want))
	}
	for i, p := range path {
		if absf(p.X-want[i]) > 1e-4 {
			t.Errorf("point %d x = %v, want %v", i, p.X, want[i])
		}
	}
}

func TestParticlePathStopsAtMaxTime(t *testing.T) {
	g := identityGrid(t, 16)
	s := uniform(g, vmath.V3(0.1, 0, 0))
	o := Options{Method: Euler, StepSize: 1, MaxSteps: 1000}
	path := ParticlePath(s, vmath.V3(2, 8, 8), 0, 5, o)
	if len(path) != 6 { // t = 0..5
		t.Errorf("path length = %d, want 6", len(path))
	}
}

func TestParticlePathDiffersFromStreamlineInUnsteadyFlow(t *testing.T) {
	// Core physics: in an unsteady flow, particle paths and
	// streamlines from the same seed diverge.
	g := identityGrid(t, 32)
	s := timeRamp(t, g, 16)
	seed := vmath.V3(2, 16, 16)
	o := Options{Method: RK2, StepSize: 1, MaxSteps: 4}
	stream := Streamline(s, seed, 1, o)  // speed frozen at t=1
	pp := ParticlePath(s, seed, 1, 9, o) // accelerating
	if len(stream) < 3 || len(pp) < 3 {
		t.Fatal("paths too short to compare")
	}
	if stream[2].ApproxEqual(pp[2], 1e-3) {
		t.Error("streamline and particle path agree in unsteady flow; should differ")
	}
}

func TestToPhysicalIdentityGrid(t *testing.T) {
	g := identityGrid(t, 8)
	path := []vmath.Vec3{vmath.V3(1, 2, 3), vmath.V3(4.5, 5.5, 6.5)}
	phys := ToPhysical(g, path)
	for i := range path {
		if !phys[i].ApproxEqual(path[i], 1e-5) {
			t.Errorf("point %d: %v -> %v", i, path[i], phys[i])
		}
	}
}

// TestToPhysicalMatchesPhysAt holds ToPhysicalInto, which converts four
// points per Locate4 and Interp3x4, to PhysAt point by point, by
// Float32bits, on the tapered cylinder's curvilinear grid: paths of
// every length from 0 to 13 (whole groups of four and remainders),
// points inside the domain, on its nodes and boundaries, and outside it
// where both clamp. Only finite points are compared: a NaN coordinate
// can come back with another NaN payload, because which of two NaNs
// survives a lerp is the compiler's choice in Interp3 (see grid's
// TestInterp3x4MatchesInterp3). A streak particle is never NaN: the
// kernel ends a lane whose position is not finite.
func TestToPhysicalMatchesPhysAt(t *testing.T) {
	g, err := grid.NewTaperedCylinder(grid.DefaultTaperedCylinder())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	coord := func(n int) float32 {
		switch rng.Intn(6) {
		case 0:
			return float32(rng.Intn(n)) // a node
		case 1:
			return float32(n - 1) // the high boundary
		case 2:
			return rng.Float32()*4*float32(n) - 2*float32(n) // mostly outside
		default:
			return rng.Float32() * float32(n-1)
		}
	}
	var dst []vmath.Vec3
	for trial := range 2000 {
		path := make([]vmath.Vec3, trial%14)
		for i := range path {
			path[i] = vmath.V3(coord(g.NI), coord(g.NJ), coord(g.NK))
		}
		dst = ToPhysicalInto(g, dst[:0], path)
		for i, gc := range path {
			want := g.PhysAt(gc)
			if got := dst[i]; math.Float32bits(got.X) != math.Float32bits(want.X) ||
				math.Float32bits(got.Y) != math.Float32bits(want.Y) || math.Float32bits(got.Z) != math.Float32bits(want.Z) {
				t.Fatalf("trial %d point %d of %d at %v: ToPhysicalInto %v, PhysAt %v", trial, i, len(path), gc, got, want)
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	if err := (Options{StepSize: 0, MaxSteps: 10}).Validate(); err == nil {
		t.Error("zero step accepted")
	}
	if err := (Options{StepSize: 1, MaxSteps: 0}).Validate(); err == nil {
		t.Error("zero max steps accepted")
	}
}

func TestStreakInjectionAndAdvection(t *testing.T) {
	g := identityGrid(t, 32)
	s := uniform(g, vmath.V3(1, 0, 0))
	st := NewStreak(1000)
	seeds := []vmath.Vec3{vmath.V3(2, 16, 16), vmath.V3(2, 20, 16)}
	for frame := 0; frame < 5; frame++ {
		st.Advance(s, seeds, float32(frame), 1, RK2)
	}
	if len(st.Particles) != 10 {
		t.Fatalf("particles = %d, want 10", len(st.Particles))
	}
	// The oldest particles have advected 5 cells, the newest 1.
	var minX, maxX float32 = 1e9, -1e9
	for _, p := range st.Particles {
		if p.Pos.X < minX {
			minX = p.Pos.X
		}
		if p.Pos.X > maxX {
			maxX = p.Pos.X
		}
	}
	if absf(minX-3) > 1e-4 || absf(maxX-7) > 1e-4 {
		t.Errorf("streak x range [%v, %v], want [3, 7]", minX, maxX)
	}
}

func TestStreakDropsExitingParticles(t *testing.T) {
	g := identityGrid(t, 8)
	s := uniform(g, vmath.V3(3, 0, 0))
	st := NewStreak(1000)
	seeds := []vmath.Vec3{vmath.V3(1, 4, 4)}
	for frame := 0; frame < 20; frame++ {
		st.Advance(s, seeds, float32(frame), 1, Euler)
	}
	// Domain is 7 cells wide; at 3 cells/frame a particle survives
	// only 2 frames, so at most 2 live particles.
	if len(st.Particles) > 2 {
		t.Errorf("%d particles alive, want <= 2", len(st.Particles))
	}
}

func TestStreakMaxParticlesBound(t *testing.T) {
	g := identityGrid(t, 64)
	s := uniform(g, vmath.V3(0.1, 0, 0))
	st := NewStreak(7)
	seeds := []vmath.Vec3{vmath.V3(2, 32, 32)}
	for frame := 0; frame < 50; frame++ {
		st.Advance(s, seeds, float32(frame), 1, Euler)
	}
	if len(st.Particles) != 7 {
		t.Errorf("particles = %d, want capped at 7", len(st.Particles))
	}
	// Survivors must be the newest (smallest ages).
	for _, p := range st.Particles {
		if p.Age > 7 {
			t.Errorf("old particle survived cap: age %d", p.Age)
		}
	}
}

func TestStreakPolylineBySeed(t *testing.T) {
	g := identityGrid(t, 32)
	s := uniform(g, vmath.V3(1, 0, 0))
	st := NewStreak(1000)
	seeds := []vmath.Vec3{vmath.V3(2, 10, 16), vmath.V3(2, 20, 16)}
	for frame := 0; frame < 4; frame++ {
		st.Advance(s, seeds, float32(frame), 1, RK2)
	}
	lines := st.PolylineBySeed(2)
	if len(lines[0]) != 4 || len(lines[1]) != 4 {
		t.Fatalf("line lengths %d/%d, want 4/4", len(lines[0]), len(lines[1]))
	}
	for _, p := range lines[0] {
		if absf(p.Y-10) > 1e-5 {
			t.Errorf("seed-0 particle at y=%v", p.Y)
		}
	}
	// Later calls reuse the lines' storage: each still groups exactly
	// the particles of its own seeds, whatever the previous call was
	// asked for, and once grown a call allocates nothing.
	for frame, n := range []int{1, 3, 2} {
		st.Advance(s, seeds, float32(4+frame), 1, RK2)
		got := st.PolylineBySeed(n)
		want := make([][]vmath.Vec3, n)
		for _, p := range st.Particles {
			if int(p.Seed) < n {
				want[p.Seed] = append(want[p.Seed], p.Pos)
			}
		}
		if len(got) != n {
			t.Fatalf("PolylineBySeed(%d) returned %d lines", n, len(got))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("PolylineBySeed(%d) line %d = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { st.PolylineBySeed(3) }); a != 0 {
		t.Errorf("PolylineBySeed allocated %v times a call once grown", a)
	}
}

func TestStreakReset(t *testing.T) {
	g := identityGrid(t, 8)
	st := NewStreak(100)
	st.Advance(uniform(g, vmath.V3(0.1, 0, 0)), []vmath.Vec3{vmath.V3(4, 4, 4)}, 0, 1, Euler)
	if len(st.Particles) == 0 {
		t.Fatal("no particles after advance")
	}
	st.Reset()
	if len(st.Particles) != 0 {
		t.Error("particles remain after Reset")
	}
}

func TestRakeSeeds(t *testing.T) {
	r, err := NewRake(1, vmath.V3(0, 0, 0), vmath.V3(9, 0, 0), 10, ToolStreamline)
	if err != nil {
		t.Fatal(err)
	}
	seeds := r.seeds()
	if len(seeds) != 10 {
		t.Fatalf("seeds = %d", len(seeds))
	}
	if seeds[0] != r.P0 || seeds[9] != r.P1 {
		t.Error("seed endpoints wrong")
	}
	if !seeds[3].ApproxEqual(vmath.V3(3, 0, 0), 1e-5) {
		t.Errorf("seed 3 = %v", seeds[3])
	}
}

func TestRakeSingleSeed(t *testing.T) {
	r, _ := NewRake(1, vmath.V3(0, 0, 0), vmath.V3(2, 0, 0), 1, ToolStreakline)
	seeds := r.seeds()
	if len(seeds) != 1 || !seeds[0].ApproxEqual(vmath.V3(1, 0, 0), 1e-5) {
		t.Errorf("single seed = %v", seeds)
	}
}

func TestRakeRejectsZeroSeeds(t *testing.T) {
	if _, err := NewRake(1, vmath.Vec3{}, vmath.Vec3{}, 0, ToolStreamline); err == nil {
		t.Error("zero-seed rake accepted")
	}
}

func TestRakeMoveGrab(t *testing.T) {
	r, _ := NewRake(1, vmath.V3(0, 0, 0), vmath.V3(2, 0, 0), 5, ToolStreamline)
	// Grab center, move to (10, 10, 10): both ends translate.
	if err := r.MoveGrab(GrabCenter, vmath.V3(10, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if !r.P0.ApproxEqual(vmath.V3(9, 10, 10), 1e-5) || !r.P1.ApproxEqual(vmath.V3(11, 10, 10), 1e-5) {
		t.Errorf("after center move: %v %v", r.P0, r.P1)
	}
	// Grab end 0: only P0 moves.
	if err := r.MoveGrab(GrabEnd0, vmath.V3(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if r.P0 != vmath.V3(0, 0, 0) || !r.P1.ApproxEqual(vmath.V3(11, 10, 10), 1e-5) {
		t.Errorf("after end0 move: %v %v", r.P0, r.P1)
	}
	if err := r.MoveGrab(GrabNone, vmath.Vec3{}); err == nil {
		t.Error("MoveGrab(GrabNone) accepted")
	}
}

func TestRakeNearestGrab(t *testing.T) {
	r, _ := NewRake(1, vmath.V3(0, 0, 0), vmath.V3(10, 0, 0), 5, ToolStreamline)
	if gp, _ := r.NearestGrab(vmath.V3(0.5, 1, 0)); gp != GrabEnd0 {
		t.Errorf("near P0 grab = %v", gp)
	}
	if gp, _ := r.NearestGrab(vmath.V3(9.5, 1, 0)); gp != GrabEnd1 {
		t.Errorf("near P1 grab = %v", gp)
	}
	if gp, _ := r.NearestGrab(vmath.V3(5, 2, 0)); gp != GrabCenter {
		t.Errorf("near center grab = %v", gp)
	}
}

func TestRakeSeedsGridDropsOutside(t *testing.T) {
	g := identityGrid(t, 8)
	// Rake extends past the grid: seeds beyond x=7 are dropped.
	r, _ := NewRake(1, vmath.V3(3, 3, 3), vmath.V3(20, 3, 3), 6, ToolStreamline)
	seeds := r.SeedsGrid(g)
	if len(seeds) == 0 || len(seeds) >= 6 {
		t.Errorf("grid seeds = %d, want some dropped", len(seeds))
	}
	for _, s := range seeds {
		if !g.InBounds(s) {
			t.Errorf("seed %v out of bounds", s)
		}
	}
}

func TestStreamlineOnRealFlow(t *testing.T) {
	// End-to-end: tapered cylinder flow sampled onto its grid,
	// converted to grid coords, streamlines come back as finite
	// physical points inside the grid's bounding box.
	spec := grid.TaperedCylinderSpec{
		NI: 16, NJ: 24, NK: 8, R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	}
	g, err := grid.NewTaperedCylinder(spec)
	if err != nil {
		t.Fatal(err)
	}
	fld := flow.Sample(flow.DefaultTaperedCylinder(), g, 0)
	if err := field.ToGridCoords(fld, g); err != nil {
		t.Fatal(err)
	}
	s := SteadySampler{F: fld, G: g}
	o := Options{Method: RK2, StepSize: 0.1, MaxSteps: 150}
	bounds := g.Bounds()
	var total int
	for j := 0; j < 24; j += 4 {
		path := Streamline(s, vmath.V3(8, float32(j), 4), 0, o)
		total += len(path)
		for _, p := range path {
			if !bounds.Contains(p) || !p.IsFinite() {
				t.Fatalf("bad path point %v", p)
			}
		}
	}
	if total < 30 {
		t.Errorf("streamlines suspiciously short: %d total points", total)
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkStreamline200Points(b *testing.B) {
	g, _ := grid.NewCartesian(64, 64, 32, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(63, 63, 31),
	})
	fld := field.NewField(64, 64, 32, field.GridCoords)
	for i := range fld.U {
		fld.U[i] = 0.05
		fld.V[i] = 0.02
	}
	s := SteadySampler{F: fld, G: g}
	o := Options{Method: RK2, StepSize: 1, MaxSteps: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Streamline(s, vmath.V3(1, 30, 15), 0, o)
	}
}

func TestStreakParticleCountBoundProperty(t *testing.T) {
	// Property: after F frames with S in-bounds seeds and cap C, the
	// particle count is min(C, F*S) when no particle exits the domain.
	g := identityGrid(t, 64)
	sampler := uniform(g, vmath.V3(0.01, 0, 0)) // slow: nothing exits
	f := func(nSeeds, frames, cap8 uint8) bool {
		s := int(nSeeds%5) + 1
		fr := int(frames%20) + 1
		c := int(cap8%30) + 1
		seeds := make([]vmath.Vec3, s)
		for i := range seeds {
			seeds[i] = vmath.V3(2, float32(4+i), 32)
		}
		st := NewStreak(c)
		for n := 0; n < fr; n++ {
			st.Advance(sampler, seeds, 0, 1, Euler)
		}
		want := fr * s
		if want > c {
			want = c
		}
		return len(st.Particles) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Reset drops all particles, used when the user moves a rake so stale
// smoke does not linger.
func (s *Streak) Reset() { s.Particles = s.Particles[:0] }
