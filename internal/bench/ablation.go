package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/field"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// AblationIntegrators compares Euler/RK2/RK4 on a Rankine vortex where
// the exact answer is a closed circle: cost per step vs radius drift
// after one revolution. The paper chose RK2; this shows why (Euler
// drifts badly, RK4 doubles the field accesses for little gain at
// interactive step sizes).
func AblationIntegrators() (*Table, error) {
	// Identity Cartesian grid so grid coords == physical coords.
	n := 65
	g, err := grid.NewCartesian(n, n, 5, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(float32(n-1), float32(n-1), 4),
	})
	if err != nil {
		return nil, err
	}
	// Rankine vortex centered mid-grid.
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
	sampler := integrate.SteadySampler{F: f, G: g}

	const radius = 12.0
	seed := center.Add(vmath.V3(radius, 0, 2))
	// Angular speed at r=12: v = Gamma/(2 pi r) = 4/12; period = 2 pi r / v.
	v := 4.0 / radius
	period := 2 * math.Pi * radius / v
	h := float32(0.5)
	steps := int(period / float64(h))

	t := &Table{
		Title:  "Ablation: integration scheme (one revolution around a Rankine vortex)",
		Note:   fmt.Sprintf("radius %g, %d steps of h=%g; drift = |r_final - r_0|", radius, steps, h),
		Header: []string{"scheme", "field accesses/step", "radius drift", "wall time"},
	}
	for _, m := range []integrate.Method{integrate.Euler, integrate.RK2, integrate.RK4} {
		gc := seed
		start := time.Now()
		for s := 0; s < steps; s++ {
			gc = integrate.Step(m, sampler, gc, 0, h)
		}
		wall := time.Since(start)
		drift := float64(gc.Sub(center).Len()) - radius
		// Z drift is zero; report planar drift magnitude.
		accesses := map[integrate.Method]int{
			integrate.Euler: 1, integrate.RK2: 2, integrate.RK4: 4,
		}[m]
		t.AddRow(m.String(), fmt.Sprintf("%d", accesses),
			fmt.Sprintf("%+.4f", drift), wall.Round(time.Microsecond).String())
	}
	return t, nil
}

// AblationGridCoords measures the paper's §2.1 optimization: with
// velocities pre-converted to grid coordinates, a step is pure array
// math; integrating in physical space requires a curvilinear point
// location (PhysToGrid) every step.
func AblationGridCoords(u *field.Unsteady, steps int) (*Table, error) {
	g := u.Grid
	fld := u.Steps[0]
	sampler := integrate.SteadySampler{F: fld, G: g}
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.3, MaxSteps: steps, MinSpeed: 1e-9}
	seed := vmath.V3(float32(g.NI)/2, float32(g.NJ)/4, float32(g.NK)/2)

	// Grid-coordinate path: the windtunnel's way.
	start := time.Now()
	path := integrate.Streamline(sampler, seed, 0, o)
	gridTime := time.Since(start)

	// Physical-space path: each step locates the point in the
	// curvilinear grid before sampling — the "unacceptable performance
	// overhead" the paper avoids.
	start = time.Now()
	physPos := g.PhysAt(seed)
	guess := seed
	located := 0
	for s := 0; s < steps; s++ {
		// Coherent search: the guess is the PREVIOUS step's grid
		// coordinate, so the point location must do real Newton work
		// to cover the step — exactly what a physical-space
		// integrator pays on every step.
		gc, err := g.PhysToGrid(physPos, guess)
		if err != nil {
			break
		}
		located++
		guess = gc
		k1 := fld.Sample(g, gc)
		// RK2's midpoint is a second field access at a new physical
		// position, which costs a second point location per step.
		midPhys := g.PhysAt(gc.Add(k1.Scale(o.StepSize / 2)))
		midGC, err := g.PhysToGrid(midPhys, gc)
		if err != nil {
			break
		}
		k2 := fld.Sample(g, midGC)
		next := gc.Add(k2.Scale(o.StepSize))
		if !g.InBounds(next) {
			break
		}
		physPos = g.PhysAt(next)
	}
	physTime := time.Since(start)

	t := &Table{
		Title:  "Ablation: grid-coordinate integration vs per-step point location (Sec 2.1)",
		Note:   fmt.Sprintf("%d RK2 steps on the tapered cylinder grid", steps),
		Header: []string{"strategy", "wall time", "time/step"},
	}
	perStep := func(d time.Duration, n int) string {
		if n == 0 {
			return "-"
		}
		return (d / time.Duration(n)).Round(10 * time.Nanosecond).String()
	}
	t.AddRow("grid coordinates (paper)", gridTime.Round(time.Microsecond).String(),
		perStep(gridTime, len(path)))
	t.AddRow("physical + point location", physTime.Round(time.Microsecond).String(),
		perStep(physTime, located))
	return t, nil
}

// AblationEncoding weighs the paper's §5.1 argument: ship 3-D points
// at 12 bytes each rather than pre-projected screen coordinates, which
// cost 8 bytes/point mono but 16 bytes/point in stereo (two
// projections).
func AblationEncoding(points int) *Table {
	t := &Table{
		Title:  "Ablation: point encoding (Sec 5.1)",
		Note:   fmt.Sprintf("%d points per frame, 10 fps", points),
		Header: []string{"encoding", "bytes/point", "bytes/frame", "bandwidth @10fps (MB/s)"},
	}
	rows := []struct {
		name string
		bpp  int
	}{
		{"3-D positions (chosen)", wire.PointBytes},
		{"projected, mono display", 8},
		{"projected, stereo (2 eyes)", 16},
	}
	for _, r := range rows {
		frame := points * r.bpp
		t.AddRow(r.name, fmt.Sprintf("%d", r.bpp), fmt.Sprintf("%d", frame),
			mbps(float64(frame)*10))
	}
	return t
}

// MultiblockBench measures the Sec 7 block-hopping integrator against
// the equivalent single-block path: the hop cost is one point location
// per seam crossing.
func MultiblockBench() (*Table, error) {
	up, err := grid.NewCartesian(21, 17, 17, vmath.AABB{
		Min: vmath.V3(-20, -8, -8), Max: vmath.V3(0.5, 8, 8),
	})
	if err != nil {
		return nil, err
	}
	down, err := grid.NewCartesian(21, 17, 17, vmath.AABB{
		Min: vmath.V3(0, -8, -8), Max: vmath.V3(20, 8, 8),
	})
	if err != nil {
		return nil, err
	}
	whole, err := grid.NewCartesian(41, 17, 17, vmath.AABB{
		Min: vmath.V3(-20, -8, -8), Max: vmath.V3(20, 8, 8),
	})
	if err != nil {
		return nil, err
	}
	m, err := grid.NewMultiblock(up, down)
	if err != nil {
		return nil, err
	}
	mkField := func(g *grid.Grid) *field.Field {
		f := field.NewField(g.NI, g.NJ, g.NK, field.GridCoords)
		for i := range f.U {
			f.U[i] = 0.5
			f.V[i] = 0.05
		}
		return f
	}
	mf, err := integrate.NewMultiField(m, []*field.Field{mkField(up), mkField(down)})
	if err != nil {
		return nil, err
	}
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.5, MaxSteps: 200, MinSpeed: 1e-9}
	const reps = 200

	start := time.Now()
	var hopPoints int
	for i := 0; i < reps; i++ {
		path, err := integrate.MultiStreamline(mf, vmath.V3(-18, 0, 0), o)
		if err != nil {
			return nil, err
		}
		hopPoints = len(path.Points)
	}
	multi := time.Since(start) / reps

	single := integrate.SteadySampler{F: mkField(whole), G: whole}
	start = time.Now()
	var singlePoints int
	for i := 0; i < reps; i++ {
		p := integrate.Streamline(single, vmath.V3(2, 8, 8), 0, o)
		singlePoints = len(p)
	}
	mono := time.Since(start) / reps

	t := &Table{
		Title:  "Sec 7: multiblock integration vs single-block equivalent",
		Note:   "same physical domain, same flow; the multiblock path pays one point location per seam hop",
		Header: []string{"configuration", "time/streamline", "points"},
	}
	t.AddRow("single block (41x17x17)", mono.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", singlePoints))
	t.AddRow("two blocks + hop", multi.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", hopPoints))
	return t, nil
}
