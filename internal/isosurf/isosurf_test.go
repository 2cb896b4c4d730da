package isosurf

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// sphereScalar fills a node-indexed array with distance from the
// center of the box.
func sphereScalar(g *grid.Grid, center vmath.Vec3) []float32 {
	s := make([]float32, g.NumNodes())
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				s[g.Index(i, j, k)] = g.At(i, j, k).Dist(center)
			}
		}
	}
	return s
}

func TestExtractValidation(t *testing.T) {
	g, _ := grid.NewCartesian(4, 4, 4, vmath.AABB{Min: vmath.V3(0, 0, 0), Max: vmath.V3(1, 1, 1)})
	if _, err := Extract(g, make([]float32, 5), 0.5); err == nil {
		t.Error("short scalar accepted")
	}
}

func TestExtractSphere(t *testing.T) {
	// Distance-from-center scalar: the iso=R surface is a sphere of
	// radius R. Check the triangle set is nonempty, every vertex lies
	// near radius R, and the total area approximates 4 pi R^2.
	g, err := grid.NewCartesian(33, 33, 33, vmath.AABB{
		Min: vmath.V3(-2, -2, -2), Max: vmath.V3(2, 2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	center := vmath.V3(0, 0, 0)
	s := sphereScalar(g, center)
	const r = 1.3
	tris, err := Extract(g, s, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) < 100 {
		t.Fatalf("only %d triangles", len(tris))
	}
	for _, tri := range tris {
		for _, v := range tri {
			d := v.Dist(center)
			if absf(d-r) > 0.05 {
				t.Fatalf("vertex %v at radius %v, want %v", v, d, r)
			}
		}
	}
	want := 4 * math.Pi * r * r
	got := Area(tris)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sphere area %v, want %v (5%%)", got, want)
	}
}

func TestExtractEmptyWhenOutsideRange(t *testing.T) {
	g, _ := grid.NewCartesian(8, 8, 8, vmath.AABB{Min: vmath.V3(0, 0, 0), Max: vmath.V3(1, 1, 1)})
	s := make([]float32, g.NumNodes()) // all zero
	tris, err := Extract(g, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 0 {
		t.Errorf("%d triangles from constant field", len(tris))
	}
}

func TestExtractPlane(t *testing.T) {
	// Scalar = x: iso=0.5 is the plane x=0.5 with area 1 in a unit box.
	g, _ := grid.NewCartesian(9, 9, 9, vmath.AABB{Min: vmath.V3(0, 0, 0), Max: vmath.V3(1, 1, 1)})
	s := make([]float32, g.NumNodes())
	for k := 0; k < 9; k++ {
		for j := 0; j < 9; j++ {
			for i := 0; i < 9; i++ {
				s[g.Index(i, j, k)] = g.At(i, j, k).X
			}
		}
	}
	tris, err := Extract(g, s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tri := range tris {
		for _, v := range tri {
			if absf(v.X-0.5) > 1e-5 {
				t.Fatalf("vertex off plane: %v", v)
			}
		}
	}
	if got := Area(tris); math.Abs(got-1) > 0.02 {
		t.Errorf("plane area %v, want 1", got)
	}
}

func TestExtractOnCurvilinearGrid(t *testing.T) {
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 16, NJ: 24, NK: 8, R0: 1, R1: 0.5, Router: 10, Span: 12, Stretch: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Radius-from-axis scalar: iso-surface is a cylinder around Z.
	s := make([]float32, g.NumNodes())
	for i := range s {
		s[i] = float32(math.Hypot(float64(g.X[i]), float64(g.Y[i])))
	}
	tris, err := Extract(g, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) < 50 {
		t.Fatalf("only %d triangles on curvilinear grid", len(tris))
	}
	for _, tri := range tris {
		for _, v := range tri {
			r := math.Hypot(float64(v.X), float64(v.Y))
			if math.Abs(r-4) > 0.25 {
				t.Fatalf("vertex radius %v, want ~4", r)
			}
		}
	}
}

func TestSpeedField(t *testing.T) {
	f := field.NewField(2, 2, 2, field.GridCoords)
	f.SetAt(1, 1, 1, vmath.V3(3, 4, 0))
	s := SpeedField(f)
	if absf(s[f.Index(1, 1, 1)]-5) > 1e-5 {
		t.Errorf("speed = %v, want 5", s[f.Index(1, 1, 1)])
	}
	if s[0] != 0 {
		t.Errorf("zero node speed = %v", s[0])
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkExtractSphere(b *testing.B) {
	g, _ := grid.NewCartesian(33, 33, 33, vmath.AABB{
		Min: vmath.V3(-2, -2, -2), Max: vmath.V3(2, 2, 2),
	})
	s := sphereScalar(g, vmath.V3(0, 0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tris, err := Extract(g, s, 1.3)
		if err != nil {
			b.Fatal(err)
		}
		if len(tris) == 0 {
			b.Fatal("no triangles")
		}
	}
}

// TestExtractStrideCoarsens: larger strides march fewer, larger cells
// — the governor's tool shed ladder. The coarse surface must stay
// non-empty and on the iso surface, with fewer triangles than stride 1.
func TestExtractStrideCoarsens(t *testing.T) {
	g, err := grid.NewCartesian(33, 33, 33, vmath.AABB{
		Min: vmath.V3(-2, -2, -2), Max: vmath.V3(2, 2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	center := vmath.V3(0, 0, 0)
	s := sphereScalar(g, center)
	fine, err := ExtractStride(g, s, 1.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := len(fine)
	for _, stride := range []int{2, 4} {
		coarse, err := ExtractStride(g, s, 1.3, stride)
		if err != nil {
			t.Fatal(err)
		}
		if len(coarse) == 0 || len(coarse) >= prev {
			t.Fatalf("stride %d: %d triangles, finer had %d", stride, len(coarse), prev)
		}
		for _, tri := range coarse {
			for _, v := range tri {
				if d := v.Dist(center); absf(d-1.3) > 0.3 {
					t.Fatalf("stride %d vertex %v at radius %v", stride, v, d)
				}
			}
		}
		prev = len(coarse)
	}
	// An invalid stride is rejected, not clamped silently.
	if _, err := ExtractStride(g, s, 1.3, 0); err == nil {
		t.Error("stride 0 accepted")
	}
}
