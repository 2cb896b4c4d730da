package field

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// fineGrid is a Cartesian grid over [0, 2pi]^3 fine enough for
// second-order gradients.
func fineGrid(t testing.TB, n int) *grid.Grid {
	t.Helper()
	g, err := grid.NewCartesian(n, n, n, vmath.AABB{
		Min: vmath.V3(0, 0, 0),
		Max: vmath.V3(2*math.Pi, 2*math.Pi, 2*math.Pi),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sampleAnalytic(g *grid.Grid, f func(p vmath.Vec3) vmath.Vec3) *Field {
	out := NewField(g.NI, g.NJ, g.NK, Physical)
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				out.SetAt(i, j, k, f(g.At(i, j, k)))
			}
		}
	}
	return out
}

func TestVorticityUniformFlowIsZero(t *testing.T) {
	g := fineGrid(t, 9)
	f := sampleAnalytic(g, func(vmath.Vec3) vmath.Vec3 { return vmath.V3(3, -1, 2) })
	w, err := Vorticity(g, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.U {
		v := vmath.Vec3{X: w.U[i], Y: w.V[i], Z: w.W[i]}
		if v.Len() > 1e-4 {
			t.Fatalf("uniform flow vorticity %v at node %d", v, i)
		}
	}
}

func TestVorticitySolidRotation(t *testing.T) {
	// Solid-body rotation omega about Z: u = omega x r has curl
	// (0, 0, 2 omega) everywhere.
	g := fineGrid(t, 9)
	const omega = 0.7
	center := vmath.V3(math.Pi, math.Pi, math.Pi)
	f := sampleAnalytic(g, func(p vmath.Vec3) vmath.Vec3 {
		d := p.Sub(center)
		return vmath.V3(-omega*d.Y, omega*d.X, 0)
	})
	w, err := Vorticity(g, f)
	if err != nil {
		t.Fatal(err)
	}
	// Check interior nodes (boundaries use one-sided differences but
	// the field is linear, so they are exact too).
	got := w.At(4, 4, 4)
	if !got.ApproxEqual(vmath.V3(0, 0, 2*omega), 1e-3) {
		t.Errorf("solid rotation curl = %v, want (0,0,%v)", got, 2*omega)
	}
}

func TestVorticityBeltramiProperty(t *testing.T) {
	// The ABC flow is a Beltrami field: curl(u) = u exactly. Check the
	// numerical curl approaches the velocity on a fine grid, interior
	// nodes only (one-sided boundary stencils are first order).
	const n = 33
	g := fineGrid(t, n)
	abc := func(p vmath.Vec3) vmath.Vec3 {
		return vmath.Vec3{
			X: float32(math.Sin(float64(p.Z)) + math.Cos(float64(p.Y))),
			Y: float32(math.Sin(float64(p.X)) + math.Cos(float64(p.Z))),
			Z: float32(math.Sin(float64(p.Y)) + math.Cos(float64(p.X))),
		}
	}
	f := sampleAnalytic(g, abc)
	w, err := Vorticity(g, f)
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float32
	for k := 2; k < n-2; k++ {
		for j := 2; j < n-2; j++ {
			for i := 2; i < n-2; i++ {
				diff := w.At(i, j, k).Sub(f.At(i, j, k)).Len()
				if diff > maxErr {
					maxErr = diff
				}
			}
		}
	}
	// Second-order central differences at h = 2pi/32: truncation
	// error ~ h^2/6 * |u'''| ~ 0.0064; allow some slack.
	if maxErr > 0.03 {
		t.Errorf("Beltrami curl error %v, want < 0.03", maxErr)
	}
}

func TestVorticityValidation(t *testing.T) {
	g := fineGrid(t, 5)
	gc := NewField(5, 5, 5, GridCoords)
	if _, err := Vorticity(g, gc); err == nil {
		t.Error("grid-coordinate field accepted")
	}
	small := NewField(3, 3, 3, Physical)
	if _, err := Vorticity(g, small); err == nil {
		t.Error("mismatched dims accepted")
	}
}

func TestVorticityOnCurvilinearGrid(t *testing.T) {
	// Solid rotation sampled on the tapered-cylinder O-grid must still
	// produce curl ~ (0, 0, 2 omega) — the Jacobian chain rule handles
	// the curvilinear coordinates.
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 24, NJ: 48, NK: 8, R0: 1, R1: 0.5, Router: 10, Span: 12, Stretch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const omega = 0.5
	f := sampleAnalytic(g, func(p vmath.Vec3) vmath.Vec3 {
		return vmath.V3(-omega*p.Y, omega*p.X, 0)
	})
	w, err := Vorticity(g, f)
	if err != nil {
		t.Fatal(err)
	}
	// Sample interior nodes away from the periodic cut.
	for _, node := range [][3]int{{12, 10, 4}, {6, 20, 3}, {18, 30, 5}} {
		got := w.At(node[0], node[1], node[2])
		if !got.ApproxEqual(vmath.V3(0, 0, 2*omega), 0.05) {
			t.Errorf("node %v curl = %v, want (0,0,%v)", node, got, 2*omega)
		}
	}
}

// TestQCriterionShearVsRotation: Q is negative (strain-dominated) in
// pure shear, positive (rotation-dominated) inside solid-body
// rotation — the separation the vortex-core tool's threshold relies
// on.
func TestQCriterionShearVsRotation(t *testing.T) {
	g := fineGrid(t, 17)
	c := float32(math.Pi) // domain center

	// Pure shear u = (y, 0, 0): S and Omega have equal norms minus the
	// diagonal, Q = -1/4 ((du/dy)^2 ... ) < 0 at interior nodes:
	// expanding, Q = -du/dy * dv/dx = 0 - actually Q = -gu.Y*gv.X = 0;
	// for u=(y,0,0): Q = -1/2(0) - (1*0+0+0) = 0. Use a strain field
	// u=(x,-y,0) instead: Q = -1/2(1+1) = -1.
	strain := sampleAnalytic(g, func(p vmath.Vec3) vmath.Vec3 {
		return vmath.V3(p.X-c, -(p.Y - c), 0)
	})
	qs, err := QCriterion(g, strain)
	if err != nil {
		t.Fatal(err)
	}
	// Solid rotation u = (-y, x, 0): Q = -gu.Y*gv.X = -(-1)(1) = 1 > 0.
	rot := sampleAnalytic(g, func(p vmath.Vec3) vmath.Vec3 {
		return vmath.V3(-(p.Y - c), p.X-c, 0)
	})
	qr, err := QCriterion(g, rot)
	if err != nil {
		t.Fatal(err)
	}
	mid := g.Index(8, 8, 8)
	if qs[mid] >= 0 {
		t.Errorf("pure strain Q = %v at center, want < 0", qs[mid])
	}
	if qr[mid] <= 0 {
		t.Errorf("solid rotation Q = %v at center, want > 0", qr[mid])
	}
	if math.Abs(float64(qs[mid])+1) > 0.05 {
		t.Errorf("strain Q = %v, want -1", qs[mid])
	}
	if math.Abs(float64(qr[mid])-1) > 0.05 {
		t.Errorf("rotation Q = %v, want 1", qr[mid])
	}

	// Coordinate-system guard: grid-coordinate input is rejected.
	gc := NewField(g.NI, g.NJ, g.NK, GridCoords)
	if _, err := QCriterion(g, gc); err == nil {
		t.Error("grid-coordinate field accepted")
	}
}

// TestToPhysicalVelocityCartesianScale: on a Cartesian grid the
// Jacobian is the (constant) cell size, so grid-coordinate velocities
// scale by spacing; converting twice is rejected.
func TestToPhysicalVelocityCartesianScale(t *testing.T) {
	g, err := grid.NewCartesian(5, 5, 5, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(8, 4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewField(5, 5, 5, GridCoords)
	for i := range f.U {
		f.U[i], f.V[i], f.W[i] = 1, 1, 1
	}
	p, err := ToPhysicalVelocity(f, g)
	if err != nil {
		t.Fatal(err)
	}
	// Spacing: (8,4,2)/(5-1) = (2,1,0.5) per grid unit.
	got := p.At(2, 2, 2)
	if got != vmath.V3(2, 1, 0.5) {
		t.Errorf("physical velocity %v, want (2 1 0.5)", got)
	}
	if p.Coords != Physical {
		t.Errorf("coords = %v", p.Coords)
	}
	if _, err := ToPhysicalVelocity(p, g); err == nil {
		t.Error("double conversion accepted")
	}
}

// Vorticity returns the curl of a physical-coordinate velocity field
// at every node: (dw/dy - dv/dz, du/dz - dw/dx, dv/dx - du/dy).
// Degenerate cells produce zero vorticity rather than an error.
func Vorticity(g *grid.Grid, f *Field) (*Field, error) {
	if f.Coords != Physical {
		return nil, fmt.Errorf("field: vorticity needs physical-coordinate velocities")
	}
	if !f.MatchesGrid(g) {
		return nil, fmt.Errorf("field: dims do not match grid")
	}
	out := NewField(f.NI, f.NJ, f.NK, Physical)
	m := g.Metric()
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				gu, gv, gw, ok := physicalGradients(g, m, f, i, j, k)
				if !ok {
					continue
				}
				out.SetAt(i, j, k, vmath.Vec3{
					X: gw.Y - gv.Z,
					Y: gu.Z - gw.X,
					Z: gv.X - gu.Y,
				})
			}
		}
	}
	return out, nil
}

// QCriterion returns the node-indexed Q-criterion of a
// physical-coordinate velocity field: Q = ½(‖Ω‖² − ‖S‖²) where S and
// Ω are the symmetric and antisymmetric parts of the velocity-gradient
// tensor. Q > 0 marks rotation-dominated regions, so the vortex-core
// tool extracts the isosurface of this scalar at a small positive
// threshold. Expanding the norms, Q = −½ ∂u_i/∂x_j ∂u_j/∂x_i.
// Degenerate cells produce Q = 0 rather than an error.
func QCriterion(g *grid.Grid, f *Field) ([]float32, error) {
	if f.Coords != Physical {
		return nil, fmt.Errorf("field: Q-criterion needs physical-coordinate velocities")
	}
	if !f.MatchesGrid(g) {
		return nil, fmt.Errorf("field: dims do not match grid")
	}
	out := make([]float32, f.NumNodes())
	QCriterionInto(out, g, f, 0, f.NK)
	return out, nil
}
