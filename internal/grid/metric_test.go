package grid

import (
	"sync"
	"testing"

	"repro/internal/vmath"
)

// metricGrids returns the grids the metric is pinned on: the tapered
// cylinder O-grid and the same grid with its inner radial line pinched
// onto the axis — a collapsed pole line, where the Jacobian is singular
// and its columns must still be reproduced bit for bit.
func metricGrids(t testing.TB) map[string]*Grid {
	t.Helper()
	spec := TaperedCylinderSpec{NI: 9, NJ: 12, NK: 6, R0: 1, R1: 0.5, Router: 8, Span: 10, Stretch: 1.7}
	cyl, err := NewTaperedCylinder(spec)
	if err != nil {
		t.Fatal(err)
	}
	pole, err := NewTaperedCylinder(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pole.NK; k++ {
		for j := 0; j < pole.NJ; j++ {
			pole.SetAt(0, j, k, vmath.Vec3{Z: pole.At(0, j, k).Z})
		}
	}
	return map[string]*Grid{"cylinder": cyl, "pole": pole}
}

// checkMetricIsJacobian compares every node's metric entry with a
// fresh Jacobian there, by bit pattern.
func checkMetricIsJacobian(t *testing.T, g *Grid) {
	t.Helper()
	m := g.Metric()
	if len(m) != g.NumNodes() {
		t.Fatalf("metric has %d entries for %d nodes", len(m), g.NumNodes())
	}
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				want := g.Jacobian(vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)})
				got := m[g.Index(i, j, k)]
				for c := range want {
					if !got[c].BitsEqual(want[c]) {
						t.Fatalf("node (%d,%d,%d) column %d: metric %v, Jacobian %v", i, j, k, c, got[c], want[c])
					}
				}
			}
		}
	}
}

func TestMetricEqualsJacobianAtEveryNode(t *testing.T) {
	for name, g := range metricGrids(t) {
		t.Run(name, func(t *testing.T) { checkMetricIsJacobian(t, g) })
	}
}

// TestMetricMemoizedAndDroppedBySetAt pins the mutation rule: the table
// is built once and shared, and SetAt drops it so the next Metric call
// sees the moved node.
func TestMetricMemoizedAndDroppedBySetAt(t *testing.T) {
	g := metricGrids(t)["cylinder"]
	first := g.Metric()
	if again := g.Metric(); &again[0] != &first[0] {
		t.Fatal("second Metric call built a second table")
	}
	g.SetAt(3, 4, 2, g.At(3, 4, 2).Add(vmath.V3(0.1, -0.2, 0.05)))
	after := g.Metric()
	if &after[0] == &first[0] {
		t.Fatal("SetAt kept the memoized table")
	}
	if nb := g.Index(4, 4, 2); after[nb] == first[nb] {
		t.Error("a neighbour's metric entry did not follow the moved node")
	}
	checkMetricIsJacobian(t, g)
}

// TestMetricConcurrentFirstCalls is the -race test for the memo: every
// caller racing for the first Metric gets the one table.
func TestMetricConcurrentFirstCalls(t *testing.T) {
	for round := 0; round < 10; round++ {
		g := metricGrids(t)["pole"]
		const callers = 8
		tables := make([]Metric, callers)
		var wg sync.WaitGroup
		for c := range tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tables[c] = g.Metric()
			}()
		}
		wg.Wait()
		for c := range tables {
			if &tables[c][0] != &tables[0][0] {
				t.Fatalf("caller %d got its own table", c)
			}
		}
		checkMetricIsJacobian(t, g)
	}
}
