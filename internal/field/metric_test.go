package field

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// The conversions and gradients read the grid's memoized node metric.
// The oracles below are the loops they replaced — one grid.Jacobian per
// node — and every output is compared with them by bit pattern, on
// hostile fields, so the metric can never change a shipped float.

func oracleToGridCoords(f *Field, g *grid.Grid) *Field {
	out := NewField(f.NI, f.NJ, f.NK, GridCoords)
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				cols := g.Jacobian(vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)})
				if ugrid, ok := solveJacobian(cols, f.At(i, j, k)); ok {
					out.SetAt(i, j, k, ugrid)
				}
			}
		}
	}
	return out
}

func oracleToPhysicalVelocity(f *Field, g *grid.Grid) *Field {
	out := NewField(f.NI, f.NJ, f.NK, Physical)
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				cols := g.Jacobian(vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)})
				u := f.At(i, j, k)
				out.SetAt(i, j, k, vmath.Vec3{
					X: cols[0].X*u.X + cols[1].X*u.Y + cols[2].X*u.Z,
					Y: cols[0].Y*u.X + cols[1].Y*u.Y + cols[2].Y*u.Z,
					Z: cols[0].Z*u.X + cols[1].Z*u.Y + cols[2].Z*u.Z,
				})
			}
		}
	}
	return out
}

// oracleGradients is physicalGradients over a fresh Jacobian.
func oracleGradients(g *grid.Grid, f *Field, i, j, k int) (gu, gv, gw vmath.Vec3, ok bool) {
	inv, ok := invert3(g.Jacobian(vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)}))
	if !ok {
		return vmath.Vec3{}, vmath.Vec3{}, vmath.Vec3{}, false
	}
	chain := func(a []float32) vmath.Vec3 {
		gxi := gradComputational(g, a, i, j, k)
		return vmath.Vec3{
			X: gxi.X*inv[0].X + gxi.Y*inv[1].X + gxi.Z*inv[2].X,
			Y: gxi.X*inv[0].Y + gxi.Y*inv[1].Y + gxi.Z*inv[2].Y,
			Z: gxi.X*inv[0].Z + gxi.Y*inv[1].Z + gxi.Z*inv[2].Z,
		}
	}
	return chain(f.U), chain(f.V), chain(f.W), true
}

func oracleQCriterion(g *grid.Grid, f *Field) []float32 {
	out := make([]float32, f.NumNodes())
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				if gu, gv, gw, ok := oracleGradients(g, f, i, j, k); ok {
					out[g.Index(i, j, k)] = -0.5*(gu.X*gu.X+gv.Y*gv.Y+gw.Z*gw.Z) -
						(gu.Y*gv.X + gu.Z*gw.X + gv.Z*gw.Y)
				}
			}
		}
	}
	return out
}

func oracleVorticity(g *grid.Grid, f *Field) *Field {
	out := NewField(f.NI, f.NJ, f.NK, Physical)
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				if gu, gv, gw, ok := oracleGradients(g, f, i, j, k); ok {
					out.SetAt(i, j, k, vmath.Vec3{X: gw.Y - gv.Z, Y: gu.Z - gw.X, Z: gv.X - gu.Y})
				}
			}
		}
	}
	return out
}

// hostileGrids returns a tapered-cylinder O-grid and the same grid with
// its inner radial line collapsed onto the axis (singular Jacobians).
func hostileGrids(t testing.TB) map[string]*grid.Grid {
	t.Helper()
	spec := grid.TaperedCylinderSpec{NI: 8, NJ: 11, NK: 5, R0: 1, R1: 0.5, Router: 8, Span: 10, Stretch: 1.7}
	cyl, err := grid.NewTaperedCylinder(spec)
	if err != nil {
		t.Fatal(err)
	}
	pole, err := grid.NewTaperedCylinder(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pole.NK; k++ {
		for j := 0; j < pole.NJ; j++ {
			pole.SetAt(0, j, k, vmath.Vec3{Z: pole.At(0, j, k).Z})
		}
	}
	return map[string]*grid.Grid{"cylinder": cyl, "pole": pole}
}

// hostileField is a random field with a sprinkling of NaN and ±3e38
// components, whose products overflow to ±Inf and NaN downstream.
func hostileField(g *grid.Grid, coords CoordSystem, seed int64) *Field {
	f := randomField(g.NI, g.NJ, g.NK, seed)
	f.Coords = coords
	rng := rand.New(rand.NewSource(seed))
	poison := []float32{float32(math.NaN()), 3e38, -3e38}
	for n := 0; n < f.NumNodes()/7; n++ {
		comp := [][]float32{f.U, f.V, f.W}[rng.Intn(3)]
		comp[rng.Intn(len(comp))] = poison[rng.Intn(len(poison))]
	}
	return f
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func sameFieldBits(t *testing.T, what string, got, want *Field) {
	t.Helper()
	if got.Coords != want.Coords {
		t.Fatalf("%s: coords %v, oracle %v", what, got.Coords, want.Coords)
	}
	sameBits(t, what+".U", got.U, want.U)
	sameBits(t, what+".V", got.V, want.V)
	sameBits(t, what+".W", got.W, want.W)
}

func TestMetricConversionsBitIdenticalToJacobianLoops(t *testing.T) {
	for name, g := range hostileGrids(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				phys := hostileField(g, Physical, seed)
				gc := phys.Clone()
				if err := ToGridCoords(gc, g); err != nil {
					t.Fatal(err)
				}
				sameFieldBits(t, "ToGridCoords", gc, oracleToGridCoords(phys, g))

				grd := hostileField(g, GridCoords, seed+10)
				back, err := ToPhysicalVelocity(grd, g)
				if err != nil {
					t.Fatal(err)
				}
				sameFieldBits(t, "ToPhysicalVelocity", back, oracleToPhysicalVelocity(grd, g))

				q, err := QCriterion(g, phys)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "QCriterion", q, oracleQCriterion(g, phys))

				w, err := Vorticity(g, phys)
				if err != nil {
					t.Fatal(err)
				}
				sameFieldBits(t, "Vorticity", w, oracleVorticity(g, phys))
			}
		})
	}
}

// TestIntoFormsWriteEveryNodeOfTheirPlanes runs the recycling forms
// plane range by plane range into buffers full of stale values: the
// ranges together must reproduce the one-shot result, degenerate nodes
// included (QCriterionInto writes their zero rather than skipping them).
func TestIntoFormsWriteEveryNodeOfTheirPlanes(t *testing.T) {
	g := hostileGrids(t)["pole"]
	grd := hostileField(g, GridCoords, 5)
	want, err := ToPhysicalVelocity(grd, g)
	if err != nil {
		t.Fatal(err)
	}
	wantQ, err := QCriterion(g, want)
	if err != nil {
		t.Fatal(err)
	}
	stale := func() *Field { return hostileField(g, Physical, 99) }
	for _, cuts := range [][]int{{0, g.NK}, {0, 1, g.NK}, {0, 2, 3, g.NK}} {
		phys := stale()
		q := stale().U
		for c := 0; c+1 < len(cuts); c++ {
			PhysicalVelocityInto(phys, grd, g.Metric(), cuts[c], cuts[c+1])
		}
		sameFieldBits(t, "PhysicalVelocityInto", phys, want)
		for c := len(cuts) - 2; c >= 0; c-- {
			QCriterionInto(q, g, phys, cuts[c], cuts[c+1])
		}
		sameBits(t, "QCriterionInto", q, wantQ)
	}
}

// BenchmarkToGridCoords times §2.1's per-timestep conversion on the
// benchmark's small dataset grid (32x48x12), metric already built: what
// synthesizing a dataset pays per step and a live solver per snapshot.
// The conversion is in place, so each iteration first restores the
// physical input with three copies.
func BenchmarkToGridCoords(b *testing.B) {
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 32, NJ: 48, NK: 12, R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	phys := randomField(g.NI, g.NJ, g.NK, 1)
	phys.Coords = Physical
	f := phys.Clone()
	g.Metric()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(f.U, phys.U)
		copy(f.V, phys.V)
		copy(f.W, phys.W)
		f.Coords = Physical
		if err := ToGridCoords(f, g); err != nil {
			b.Fatal(err)
		}
	}
}
