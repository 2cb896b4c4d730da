package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vmath"
)

func unitBox() vmath.AABB {
	return vmath.AABB{Min: vmath.V3(0, 0, 0), Max: vmath.V3(1, 1, 1)}
}

func TestNewRejectsTinyDims(t *testing.T) {
	for _, dims := range [][3]int{{1, 4, 4}, {4, 1, 4}, {4, 4, 1}, {0, 0, 0}} {
		if _, err := New(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("New(%v) succeeded, want error", dims)
		}
	}
}

func TestCartesianNodePositions(t *testing.T) {
	box := vmath.AABB{Min: vmath.V3(-1, -2, -3), Max: vmath.V3(1, 2, 3)}
	g, err := NewCartesian(5, 5, 5, box)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.At(0, 0, 0); got != box.Min {
		t.Errorf("corner 000 = %v", got)
	}
	if got := g.At(4, 4, 4); got != box.Max {
		t.Errorf("corner max = %v", got)
	}
	if got := g.At(2, 2, 2); !got.ApproxEqual(vmath.V3(0, 0, 0), 1e-6) {
		t.Errorf("center = %v", got)
	}
	if err := g.validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPhysAtMatchesNodesExactly(t *testing.T) {
	g, _ := NewStretchedBox(6, 5, 4, unitBox(), 1.7)
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				gc := vmath.V3(float32(i), float32(j), float32(k))
				got := g.PhysAt(gc)
				want := g.At(i, j, k)
				if !got.ApproxEqual(want, 1e-6) {
					t.Fatalf("PhysAt(%v) = %v, want %v", gc, got, want)
				}
			}
		}
	}
}

func TestPhysAtLinearInCell(t *testing.T) {
	// On a Cartesian grid the trilinear map is globally linear, so the
	// midpoint of any two grid coords maps to the midpoint in space.
	g, _ := NewCartesian(4, 4, 4, unitBox())
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a := g.ClampToBounds(vmath.V3(wrap(ax, 3), wrap(ay, 3), wrap(az, 3)))
		b := g.ClampToBounds(vmath.V3(wrap(bx, 3), wrap(by, 3), wrap(bz, 3)))
		mid := a.Lerp(b, 0.5)
		want := g.PhysAt(a).Lerp(g.PhysAt(b), 0.5)
		return g.PhysAt(mid).ApproxEqual(want, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func wrap(f float32, n float32) float32 {
	if f != f { // NaN
		return 0
	}
	v := float32(math.Abs(float64(f)))
	return float32(math.Mod(float64(v), float64(n)))
}

func TestTrilerpConstantField(t *testing.T) {
	g, _ := NewTaperedCylinder(TaperedCylinderSpec{
		NI: 8, NJ: 12, NK: 5, R0: 1, R1: 0.5, Router: 10, Span: 8, Stretch: 2,
	})
	a := make([]float32, g.NumNodes())
	for i := range a {
		a[i] = 7.5
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100; n++ {
		gc := vmath.V3(rng.Float32()*7, rng.Float32()*11, rng.Float32()*4)
		if got := g.Trilerp(a, gc); absf32(got-7.5) > 1e-5 {
			t.Fatalf("Trilerp constant at %v = %v", gc, got)
		}
	}
}

func TestTrilerpBoundsClamping(t *testing.T) {
	g, _ := NewCartesian(3, 3, 3, unitBox())
	a := make([]float32, g.NumNodes())
	for i := range a {
		a[i] = float32(i)
	}
	// Far outside coordinates must not panic and must equal the
	// clamped lookup.
	out := vmath.V3(-10, 50, 2.5)
	want := g.Trilerp(a, g.ClampToBounds(out))
	if got := g.Trilerp(a, out); got != want {
		t.Errorf("out-of-bounds trilerp = %v, want %v", got, want)
	}
}

func TestPhysToGridRoundTripCartesian(t *testing.T) {
	g, _ := NewCartesian(9, 9, 9, vmath.AABB{Min: vmath.V3(-2, -2, -2), Max: vmath.V3(2, 2, 2)})
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 50; n++ {
		gc := vmath.V3(rng.Float32()*8, rng.Float32()*8, rng.Float32()*8)
		p := g.PhysAt(gc)
		got, err := g.PhysToGrid(p, vmath.V3(4, 4, 4))
		if err != nil {
			t.Fatalf("PhysToGrid(%v): %v", p, err)
		}
		if !g.PhysAt(got).ApproxEqual(p, 1e-3) {
			t.Fatalf("round trip %v -> %v -> %v", gc, got, g.PhysAt(got))
		}
	}
}

func TestPhysToGridRoundTripCurvilinear(t *testing.T) {
	g, _ := NewTaperedCylinder(DefaultTaperedCylinder())
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 30; n++ {
		// Stay off the periodic cut (j near NJ-1) where the physical
		// map folds back and the inverse is ambiguous.
		gc := vmath.V3(
			rng.Float32()*float32(g.NI-1),
			rng.Float32()*float32(g.NJ-10),
			rng.Float32()*float32(g.NK-1),
		)
		p := g.PhysAt(gc)
		got, err := g.PhysToGrid(p, gc.Add(vmath.V3(0.4, 0.4, 0.4)))
		if err != nil {
			t.Fatalf("PhysToGrid at gc=%v p=%v: %v", gc, p, err)
		}
		if !g.PhysAt(got).ApproxEqual(p, 5e-3) {
			t.Fatalf("round trip gc=%v got=%v phys %v vs %v", gc, got, g.PhysAt(got), p)
		}
	}
}

func TestPhysToGridOutside(t *testing.T) {
	g, _ := NewCartesian(4, 4, 4, unitBox())
	if _, err := g.PhysToGrid(vmath.V3(50, 50, 50), vmath.V3(1, 1, 1)); err == nil {
		t.Error("PhysToGrid far outside succeeded, want error")
	}
}

func TestJacobianCartesian(t *testing.T) {
	// A [0,2]^3 box on a 3-node-per-axis grid has spacing 1 per index,
	// so the Jacobian is the identity.
	g, _ := NewCartesian(3, 3, 3, vmath.AABB{Min: vmath.V3(0, 0, 0), Max: vmath.V3(2, 2, 2)})
	cols := g.Jacobian(vmath.V3(1, 1, 1))
	want := [3]vmath.Vec3{vmath.V3(1, 0, 0), vmath.V3(0, 1, 0), vmath.V3(0, 0, 1)}
	for a := 0; a < 3; a++ {
		if !cols[a].ApproxEqual(want[a], 1e-4) {
			t.Errorf("Jacobian col %d = %v, want %v", a, cols[a], want[a])
		}
	}
}

func TestTaperedCylinderGeometry(t *testing.T) {
	spec := DefaultTaperedCylinder()
	g, err := NewTaperedCylinder(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	// Inner wall nodes (i = 0) must sit on the tapered radius.
	for k := 0; k < g.NK; k += 7 {
		fz := float32(k) / float32(g.NK-1)
		wantR := spec.R0 + (spec.R1-spec.R0)*fz
		for j := 0; j < g.NJ; j += 11 {
			p := g.At(0, j, k)
			r := float32(math.Hypot(float64(p.X), float64(p.Y)))
			if absf32(r-wantR) > 1e-4 {
				t.Fatalf("wall node (0,%d,%d) radius %v, want %v", j, k, r, wantR)
			}
		}
	}
	// Outer boundary nodes (i = NI-1) at Router.
	p := g.At(g.NI-1, 0, 0)
	r := float32(math.Hypot(float64(p.X), float64(p.Y)))
	if absf32(r-spec.Router) > 1e-3 {
		t.Errorf("outer node radius %v, want %v", r, spec.Router)
	}
	// Paper scale check: default grid node count matches the paper's
	// tapered cylinder 131,072 points (64*64*32).
	if g.NumNodes() != 131072 {
		t.Errorf("default tapered cylinder has %d nodes, want 131072", g.NumNodes())
	}
}

func TestTaperedCylinderRejectsBadSpec(t *testing.T) {
	bad := []TaperedCylinderSpec{
		{NI: 4, NJ: 4, NK: 4, R0: 0, R1: 1, Router: 5, Span: 1, Stretch: 1},
		{NI: 4, NJ: 4, NK: 4, R0: 1, R1: 1, Router: 0.5, Span: 1, Stretch: 1},
		{NI: 4, NJ: 4, NK: 4, R0: 1, R1: 1, Router: 5, Span: 1, Stretch: 0.5},
	}
	for i, spec := range bad {
		if _, err := NewTaperedCylinder(spec); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
}

func TestBounds(t *testing.T) {
	box := vmath.AABB{Min: vmath.V3(-3, 0, 1), Max: vmath.V3(3, 2, 4)}
	g, _ := NewCartesian(4, 4, 4, box)
	b := g.Bounds()
	if !b.Min.ApproxEqual(box.Min, 1e-6) || !b.Max.ApproxEqual(box.Max, 1e-6) {
		t.Errorf("Bounds = %v..%v, want %v..%v", b.Min, b.Max, box.Min, box.Max)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := NewCartesian(3, 3, 3, unitBox())
	g.X[5] = float32(math.NaN())
	if err := g.validate(); err == nil {
		t.Error("Validate accepted NaN node")
	}
	g2, _ := NewCartesian(3, 3, 3, unitBox())
	g2.Y = g2.Y[:10]
	if err := g2.validate(); err == nil {
		t.Error("Validate accepted short coordinate array")
	}
}

func absf32(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkTrilerp(b *testing.B) {
	g, _ := NewTaperedCylinder(DefaultTaperedCylinder())
	a := make([]float32, g.NumNodes())
	for i := range a {
		a[i] = float32(i % 97)
	}
	gc := vmath.V3(10.3, 20.7, 5.1)
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += g.Trilerp(a, gc)
	}
	_ = sink
}

func BenchmarkPhysToGrid(b *testing.B) {
	g, _ := NewTaperedCylinder(DefaultTaperedCylinder())
	p := g.PhysAt(vmath.V3(10, 20, 5))
	guess := vmath.V3(9, 19, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PhysToGrid(p, guess); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPhysAtConvexityProperty(t *testing.T) {
	// Property: the trilinear map is convex per cell, so PhysAt(gc)
	// lies inside the bounding box of the cell's eight corner nodes.
	g, err := NewTaperedCylinder(TaperedCylinderSpec{
		NI: 12, NJ: 16, NK: 6, R0: 1, R1: 0.5, Router: 8, Span: 10, Stretch: 1.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(fx, fy, fz float32) bool {
		gc := vmath.V3(wrap(fx, float32(g.NI-1)), wrap(fy, float32(g.NJ-1)), wrap(fz, float32(g.NK-1)))
		p := g.PhysAt(gc)
		i0 := int(gc.X)
		j0 := int(gc.Y)
		k0 := int(gc.Z)
		if i0 > g.NI-2 {
			i0 = g.NI - 2
		}
		if j0 > g.NJ-2 {
			j0 = g.NJ - 2
		}
		if k0 > g.NK-2 {
			k0 = g.NK - 2
		}
		box := vmath.NewAABB()
		for dk := 0; dk <= 1; dk++ {
			for dj := 0; dj <= 1; dj++ {
				for di := 0; di <= 1; di++ {
					box = box.Extend(g.At(i0+di, j0+dj, k0+dk))
				}
			}
		}
		eps := box.Size().Scale(1e-4).Add(vmath.V3(1e-5, 1e-5, 1e-5))
		wide := vmath.AABB{Min: box.Min.Sub(eps), Max: box.Max.Add(eps)}
		return wide.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewStretchedBoxValidation(t *testing.T) {
	if _, err := NewStretchedBox(4, 4, 4, unitBox(), 0); err == nil {
		t.Error("zero exponent accepted")
	}
	if _, err := NewStretchedBox(1, 4, 4, unitBox(), 1); err == nil {
		t.Error("tiny dims accepted")
	}
	g, err := NewStretchedBox(5, 4, 4, unitBox(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Stretching clusters nodes toward low X: the first interior node
	// sits below the uniform position.
	if g.At(1, 0, 0).X >= 0.25 {
		t.Errorf("no clustering: x[1] = %v", g.At(1, 0, 0).X)
	}
}

func TestCartesianRejectsTinyDims(t *testing.T) {
	if _, err := NewCartesian(1, 4, 4, unitBox()); err == nil {
		t.Error("tiny Cartesian accepted")
	}
}

func TestMultiblockTransferExcludesOrigin(t *testing.T) {
	a, _ := NewCartesian(4, 4, 4, unitBox())
	m, err := NewMultiblock(a)
	if err != nil {
		t.Fatal(err)
	}
	// Only one block: transfer from it can never succeed.
	if _, err := m.Transfer(vmath.V3(0.5, 0.5, 0.5), 0); err == nil {
		t.Error("transfer returned the origin block")
	}
}

func TestMultiblockRejectsInvalidBlock(t *testing.T) {
	a, _ := NewCartesian(4, 4, 4, unitBox())
	a.X = a.X[:3]
	if _, err := NewMultiblock(a); err == nil {
		t.Error("corrupt block accepted")
	}
}

func TestMultiblockLocateBadGuessBlock(t *testing.T) {
	a, _ := NewCartesian(4, 4, 4, unitBox())
	m, _ := NewMultiblock(a)
	// Out-of-range guess block index must not panic.
	bc, err := m.Locate(vmath.V3(0.5, 0.5, 0.5), BlockCoord{Block: 99})
	if err != nil || bc.Block != 0 {
		t.Errorf("locate with bad guess: %v %v", bc, err)
	}
}

// Trilerp interpolates one node-indexed scalar array (len == NumNodes)
// at grid coordinate gc. Callers sampling several arrays at one
// coordinate Locate once and use Interp3.
func (g *Grid) Trilerp(a []float32, gc vmath.Vec3) float32 {
	x, _, _ := g.Interp3(a, a, a, g.Locate(gc))
	return x
}

// NewStretchedBox returns a Cartesian-topology grid over box whose
// nodes are clustered toward the low-X face with the given exponent,
// useful for exercising non-uniform Jacobians in tests.
func NewStretchedBox(ni, nj, nk int, box vmath.AABB, exponent float64) (*Grid, error) {
	if exponent <= 0 {
		return nil, fmt.Errorf("grid: stretch exponent %g <= 0", exponent)
	}
	g, err := New(ni, nj, nk)
	if err != nil {
		return nil, err
	}
	size := box.Size()
	for k := 0; k < nk; k++ {
		fz := float32(k) / float32(nk-1)
		for j := 0; j < nj; j++ {
			fy := float32(j) / float32(nj-1)
			for i := 0; i < ni; i++ {
				fx := float32(math.Pow(float64(i)/float64(ni-1), exponent))
				g.SetAt(i, j, k, vmath.Vec3{
					X: box.Min.X + fx*size.X,
					Y: box.Min.Y + fy*size.Y,
					Z: box.Min.Z + fz*size.Z,
				})
			}
		}
	}
	return g, nil
}
