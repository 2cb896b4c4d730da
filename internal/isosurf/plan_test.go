package isosurf

import (
	"math"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// oracleExtract is the single-pass serial march Plan replaced, kept as
// the reference every form is compared with: cells in k/j/i order, the
// eight corners gathered per cell, tetrahedra in table order, one case
// per inside-mask.
func oracleExtract(g *grid.Grid, scalar []float32, iso float32, stride int) []Triangle {
	var out []Triangle
	var vals [8]float32
	var pos [8]vmath.Vec3
	for k := 0; k < g.NK-1; k += stride {
		kHi := min(k+stride, g.NK-1)
		for j := 0; j < g.NJ-1; j += stride {
			jHi := min(j+stride, g.NJ-1)
			for i := 0; i < g.NI-1; i += stride {
				iHi := min(i+stride, g.NI-1)
				inside := 0
				for c := 0; c < 8; c++ {
					ci, cj, ck := i, j, k
					if c&1 != 0 {
						ci = iHi
					}
					if c&2 != 0 {
						cj = jHi
					}
					if c&4 != 0 {
						ck = kHi
					}
					idx := g.Index(ci, cj, ck)
					vals[c] = scalar[idx]
					pos[c] = vmath.Vec3{X: g.X[idx], Y: g.Y[idx], Z: g.Z[idx]}
					if vals[c] >= iso {
						inside++
					}
				}
				if inside == 0 || inside == 8 {
					continue
				}
				for _, tet := range tets {
					out = oracleTet(out, &vals, &pos, tet, iso)
				}
			}
		}
	}
	return out
}

func oracleTet(out []Triangle, vals *[8]float32, pos *[8]vmath.Vec3, tet [4]int, iso float32) []Triangle {
	var mask int
	for n, c := range tet {
		if vals[c] >= iso {
			mask |= 1 << n
		}
	}
	edge := func(a, b int) vmath.Vec3 {
		ca, cb := tet[a], tet[b]
		va, vb := vals[ca], vals[cb]
		t := float32(0.5)
		if va != vb {
			t = (iso - va) / (vb - va)
		}
		return pos[ca].Lerp(pos[cb], t)
	}
	switch mask {
	case 0x1, 0xE:
		out = append(out, Triangle{edge(0, 1), edge(0, 2), edge(0, 3)})
	case 0x2, 0xD:
		out = append(out, Triangle{edge(1, 0), edge(1, 3), edge(1, 2)})
	case 0x4, 0xB:
		out = append(out, Triangle{edge(2, 0), edge(2, 1), edge(2, 3)})
	case 0x8, 0x7:
		out = append(out, Triangle{edge(3, 0), edge(3, 2), edge(3, 1)})
	case 0x3, 0xC:
		a, b, c, d := edge(0, 2), edge(0, 3), edge(1, 3), edge(1, 2)
		out = append(out, Triangle{a, b, c}, Triangle{a, c, d})
	case 0x5, 0xA:
		a, b, c, d := edge(0, 1), edge(0, 3), edge(2, 3), edge(2, 1)
		out = append(out, Triangle{a, b, c}, Triangle{a, c, d})
	case 0x6, 0x9:
		a, b, c, d := edge(1, 0), edge(1, 3), edge(2, 3), edge(2, 0)
		out = append(out, Triangle{a, b, c}, Triangle{a, c, d})
	}
	return out
}

// marchCases are the fields every form of the march is pinned on: a
// sphere on a box whose dimensions no stride divides, and a radius
// scalar on the curvilinear O-grid with NaN and huge values sprinkled
// in (a NaN corner is outside, and poisons the crossings it touches).
func marchCases(t testing.TB) map[string]struct {
	g      *grid.Grid
	scalar []float32
	iso    float32
} {
	t.Helper()
	type mc = struct {
		g      *grid.Grid
		scalar []float32
		iso    float32
	}
	box, err := grid.NewCartesian(21, 19, 17, vmath.AABB{Min: vmath.V3(-2, -2, -2), Max: vmath.V3(2, 2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cyl, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 16, NJ: 24, NK: 8, R0: 1, R1: 0.5, Router: 10, Span: 12, Stretch: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	radius := make([]float32, cyl.NumNodes())
	for i := range radius {
		radius[i] = float32(math.Hypot(float64(cyl.X[i]), float64(cyl.Y[i])))
		switch i % 97 {
		case 13:
			radius[i] = float32(math.NaN())
		case 57:
			radius[i] = 3e38
		}
	}
	return map[string]mc{
		"sphere":   {box, sphereScalar(box, vmath.V3(0.3, -0.2, 0.1)), 1.1},
		"cylinder": {cyl, radius, 4},
	}
}

func sameTriangles(t *testing.T, what string, got, want []Triangle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d triangles, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		for v := range want[i] {
			if !got[i][v].BitsEqual(want[i][v]) {
				t.Fatalf("%s: triangle %d vertex %d = %v, oracle %v", what, i, v, got[i][v], want[i][v])
			}
		}
	}
}

// TestExtractParallelMatchesSerial pins the determinism contract the shared
// tools ship on: the serial and parallel extractions, and a recycled
// Plan counted and filled by concurrent goroutines straight into one
// buffer, all emit the oracle's exact point stream — same points, same
// order — at every stride and worker count.
func TestExtractParallelMatchesSerial(t *testing.T) {
	for name, c := range marchCases(t) {
		t.Run(name, func(t *testing.T) {
			var plan Plan // recycled across every configuration
			var pts []vmath.Vec3
			for _, stride := range []int{1, 2, 4} {
				want := oracleExtract(c.g, c.scalar, c.iso, stride)
				if len(want) == 0 {
					t.Fatalf("stride %d: oracle found no surface", stride)
				}
				serial, err := extractStride(c.g, c.scalar, c.iso, stride)
				if err != nil {
					t.Fatal(err)
				}
				sameTriangles(t, "ExtractStride", serial, want)
				for _, workers := range []int{1, 2, 3, 7} {
					par, err := ExtractParallel(c.g, c.scalar, c.iso, stride, workers)
					if err != nil {
						t.Fatal(err)
					}
					sameTriangles(t, "ExtractParallel", par, want)

					if err := plan.Reset(c.g, c.scalar, c.iso, stride, workers); err != nil {
						t.Fatal(err)
					}
					if plan.Slabs() > workers {
						t.Fatalf("stride %d: %d slabs for %d parts", stride, plan.Slabs(), workers)
					}
					inParallel(plan.Slabs(), plan.Count)
					n := plan.Layout()
					if n != 3*len(want) {
						t.Fatalf("stride %d workers %d: plan lays out %d points, oracle %d",
							stride, workers, n, 3*len(want))
					}
					if cap(pts) < n {
						pts = make([]vmath.Vec3, n)
					}
					pts = pts[:n]
					for i := range pts {
						pts[i] = vmath.V3(-1, -1, -1) // stale: every point must be rewritten
					}
					inParallel(plan.Slabs(), func(s int) { plan.Fill(s, pts) })
					for i, tri := range want {
						for v := range tri {
							if !pts[3*i+v].BitsEqual(tri[v]) {
								t.Fatalf("stride %d workers %d: in-place point %d = %v, oracle %v",
									stride, workers, 3*i+v, pts[3*i+v], tri[v])
							}
						}
					}
				}
			}
		})
	}
}

// inParallel runs do(0..n-1), one goroutine each.
func inParallel(n int, do func(int)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(s)
		}()
	}
	wg.Wait()
}

// TestPlanRecycles: a Plan that has run once plans, counts and fills
// the next extraction without allocating.
func TestPlanRecycles(t *testing.T) {
	c := marchCases(t)["sphere"]
	var plan Plan
	pts := make([]vmath.Vec3, 3*len(oracleExtract(c.g, c.scalar, c.iso, 1)))
	run := func() {
		if err := plan.Reset(c.g, c.scalar, c.iso, 1, 4); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < plan.Slabs(); s++ {
			plan.Count(s)
		}
		if n := plan.Layout(); n != len(pts) {
			t.Fatalf("laid out %d points, want %d", n, len(pts))
		}
		for s := 0; s < plan.Slabs(); s++ {
			plan.Fill(s, pts)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("a recycled plan allocates %.0f times per extraction", allocs)
	}
}
