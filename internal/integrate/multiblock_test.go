package integrate

import (
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// twoBlocks builds two abutting/overlapping Cartesian blocks along X:
// block 0 spans x in [0, 10], block 1 spans x in [9.5, 20] (a half-cell
// overlap, as real multiblock meshes have). Both carry uniform +X
// velocity in grid coordinates.
func twoBlocks(t testing.TB) (*grid.Multiblock, *MultiField) {
	t.Helper()
	b0, err := grid.NewCartesian(11, 9, 9, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := grid.NewCartesian(11, 9, 9, vmath.AABB{
		Min: vmath.V3(9.5, 0, 0), Max: vmath.V3(20, 8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := grid.NewMultiblock(b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	mkField := func(cellsPerUnit float32) *field.Field {
		f := field.NewField(11, 9, 9, field.GridCoords)
		for i := range f.U {
			f.U[i] = cellsPerUnit // +X drift in grid cells/step
		}
		return f
	}
	// Block 0 has spacing 1/index; block 1 spacing 1.05/index — the
	// same physical velocity needs slightly different grid velocity,
	// but for this test uniform per-block values are fine.
	mf, err := NewMultiField(m, []*field.Field{mkField(0.5), mkField(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	return m, mf
}

func TestNewMultiblockValidation(t *testing.T) {
	if _, err := grid.NewMultiblock(); err == nil {
		t.Error("empty multiblock accepted")
	}
}

func TestNewMultiFieldValidation(t *testing.T) {
	m, _ := twoBlocks(t)
	if _, err := NewMultiField(m, nil); err == nil {
		t.Error("wrong field count accepted")
	}
	bad := []*field.Field{
		field.NewField(11, 9, 9, field.GridCoords),
		field.NewField(4, 4, 4, field.GridCoords),
	}
	if _, err := NewMultiField(m, bad); err == nil {
		t.Error("mismatched field dims accepted")
	}
	phys := []*field.Field{
		field.NewField(11, 9, 9, field.Physical),
		field.NewField(11, 9, 9, field.Physical),
	}
	if _, err := NewMultiField(m, phys); err == nil {
		t.Error("physical-coordinate fields accepted")
	}
}

func TestMultiblockLocate(t *testing.T) {
	m, _ := twoBlocks(t)
	// Point clearly in block 0.
	bc, err := m.Locate(vmath.V3(3, 4, 4), grid.BlockCoord{Block: 0, GC: vmath.V3(5, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Block != 0 {
		t.Errorf("located in block %d, want 0", bc.Block)
	}
	if got := m.PhysAt(bc); !got.ApproxEqual(vmath.V3(3, 4, 4), 1e-3) {
		t.Errorf("PhysAt(located) = %v", got)
	}
	// Point clearly in block 1, guess from block 0: must hop.
	bc, err = m.Locate(vmath.V3(15, 4, 4), grid.BlockCoord{Block: 0, GC: vmath.V3(5, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Block != 1 {
		t.Errorf("located in block %d, want 1", bc.Block)
	}
	// Point outside everything.
	if _, err := m.Locate(vmath.V3(100, 100, 100), grid.BlockCoord{}); err == nil {
		t.Error("outside point located")
	}
}

func TestMultiblockBounds(t *testing.T) {
	m, _ := twoBlocks(t)
	b := m.Bounds()
	if !b.Min.ApproxEqual(vmath.V3(0, 0, 0), 1e-5) || !b.Max.ApproxEqual(vmath.V3(20, 8, 8), 1e-5) {
		t.Errorf("bounds %v..%v", b.Min, b.Max)
	}
}

func TestMultiStreamlineHopsBlocks(t *testing.T) {
	_, mf := twoBlocks(t)
	o := Options{Method: RK2, StepSize: 1, MaxSteps: 60, MinSpeed: 1e-9}
	path, err := MultiStreamline(mf, vmath.V3(1, 4, 4), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Blocks) != 2 || path.Blocks[0] != 0 || path.Blocks[1] != 1 {
		t.Fatalf("blocks visited = %v, want [0 1]", path.Blocks)
	}
	// The path must progress monotonically in physical +X across the
	// block seam and reach deep into block 1.
	last := path.Points[len(path.Points)-1]
	if last.X < 15 {
		t.Errorf("path stopped at x=%v, want well into block 1", last.X)
	}
	for i := 1; i < len(path.Points); i++ {
		if path.Points[i].X < path.Points[i-1].X-1e-4 {
			t.Fatalf("path went backward at %d: %v -> %v", i, path.Points[i-1], path.Points[i])
		}
	}
	// Y/Z must be preserved through the hop (uniform X flow).
	for i, p := range path.Points {
		if absf(p.Y-4) > 0.05 || absf(p.Z-4) > 0.05 {
			t.Fatalf("point %d drifted off axis: %v", i, p)
		}
	}
}

func TestMultiStreamlineStopsAtDomainEnd(t *testing.T) {
	_, mf := twoBlocks(t)
	o := Options{Method: RK2, StepSize: 1, MaxSteps: 500, MinSpeed: 1e-9}
	path, err := MultiStreamline(mf, vmath.V3(1, 4, 4), o)
	if err != nil {
		t.Fatal(err)
	}
	last := path.Points[len(path.Points)-1]
	if last.X > 20.01 {
		t.Errorf("path escaped the composite domain: %v", last)
	}
	if len(path.Points) >= 500 {
		t.Error("path did not terminate at the domain boundary")
	}
}

func TestMultiStreamlineSeedOutside(t *testing.T) {
	_, mf := twoBlocks(t)
	if _, err := MultiStreamline(mf, vmath.V3(-50, 0, 0), DefaultOptions()); err == nil {
		t.Error("outside seed accepted")
	}
}

func TestMultiStreamlineSingleBlockMatchesStreamline(t *testing.T) {
	// With one block, MultiStreamline must agree with the plain
	// streamline in physical space.
	g, err := grid.NewCartesian(11, 9, 9, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := field.NewField(11, 9, 9, field.GridCoords)
	for i := range f.U {
		f.U[i] = 0.5
		f.V[i] = 0.2
	}
	m, err := grid.NewMultiblock(g)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := NewMultiField(m, []*field.Field{f})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Method: RK2, StepSize: 0.5, MaxSteps: 30, MinSpeed: 1e-9}
	multi, err := MultiStreamline(mf, vmath.V3(1, 1, 4), o)
	if err != nil {
		t.Fatal(err)
	}
	single := Streamline(SteadySampler{F: f, G: g}, vmath.V3(1, 1, 4), 0, o)
	if len(multi.Points) != len(single) {
		t.Fatalf("lengths %d vs %d", len(multi.Points), len(single))
	}
	for i := range single {
		if !multi.Points[i].ApproxEqual(single[i], 1e-3) {
			t.Fatalf("point %d: %v vs %v", i, multi.Points[i], single[i])
		}
	}
}
