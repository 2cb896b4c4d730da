package field

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// Derived-field diagnostics. The windtunnel's tracers visualize the
// velocity field directly; vorticity magnitude is the scalar whose
// isosurfaces bound the shed vortices, and divergence is the
// incompressibility check applied to generated datasets.

// gradComputational returns the computational-space gradient of
// component a at node (i, j, k) by central differences (one-sided at
// boundaries).
func gradComputational(g *grid.Grid, a []float32, i, j, k int) vmath.Vec3 {
	diff := func(lo, hi int, span float32) float32 {
		return (a[hi] - a[lo]) / span
	}
	var out vmath.Vec3
	// d/di
	iLo, iHi := maxInt(i-1, 0), minInt(i+1, g.NI-1)
	out.X = diff(g.Index(iLo, j, k), g.Index(iHi, j, k), float32(iHi-iLo))
	// d/dj
	jLo, jHi := maxInt(j-1, 0), minInt(j+1, g.NJ-1)
	out.Y = diff(g.Index(i, jLo, k), g.Index(i, jHi, k), float32(jHi-jLo))
	// d/dk
	kLo, kHi := maxInt(k-1, 0), minInt(k+1, g.NK-1)
	out.Z = diff(g.Index(i, j, kLo), g.Index(i, j, kHi), float32(kHi-kLo))
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// physicalGradients returns the physical-space gradient rows
// (du/dx, du/dy, du/dz) for each velocity component at node (i, j, k):
// grad_x u = J^-T grad_xi u, where J is the grid Jacobian, read from
// the grid's node metric m.
func physicalGradients(g *grid.Grid, m grid.Metric, f *Field, i, j, k int) (gu, gv, gw vmath.Vec3, ok bool) {
	cols := m[g.Index(i, j, k)] // d(phys)/d(xi), columns per computational axis
	inv, invOK := invert3(cols)
	if !invOK {
		return vmath.Vec3{}, vmath.Vec3{}, vmath.Vec3{}, false
	}
	// Chain rule: d(comp)/dx_m = sum_a d(comp)/dxi_a * dxi_a/dx_m.
	// inv rows are dxi_a/dx; computational gradients dot them.
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

// invert3 inverts the 3x3 matrix given by columns, returning rows of
// the inverse.
func invert3(cols [3]vmath.Vec3) ([3]vmath.Vec3, bool) {
	det := cols[0].Dot(cols[1].Cross(cols[2]))
	if det < 1e-12 && det > -1e-12 {
		return [3]vmath.Vec3{}, false
	}
	inv := 1 / det
	r0 := cols[1].Cross(cols[2]).Scale(inv)
	r1 := cols[2].Cross(cols[0]).Scale(inv)
	r2 := cols[0].Cross(cols[1]).Scale(inv)
	return [3]vmath.Vec3{r0, r1, r2}, true
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

// QCriterionInto is QCriterion's loop over the k-planes [k0, k1),
// writing every node of those planes (zero where the cell is
// degenerate) into dst: the form a caller that recycles dst across
// timesteps, or splits the planes over workers, uses. f is a
// physical-coordinate field matching g and is read beyond the range
// (central differences); disjoint plane ranges may run concurrently.
//
//vw:hotpath
func QCriterionInto(dst []float32, g *grid.Grid, f *Field, k0, k1 int) {
	m := g.Metric()
	for k := k0; k < k1; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				var q float32
				if gu, gv, gw, ok := physicalGradients(g, m, f, i, j, k); ok {
					q = -0.5*(gu.X*gu.X+gv.Y*gv.Y+gw.Z*gw.Z) -
						(gu.Y*gv.X + gu.Z*gw.X + gv.Z*gw.Y)
				}
				dst[g.Index(i, j, k)] = q
			}
		}
	}
}

// DivergenceStats returns the mean and max absolute divergence of a
// physical-coordinate field — the incompressibility diagnostic.
func DivergenceStats(g *grid.Grid, f *Field) (mean, max float64, err error) {
	if f.Coords != Physical {
		return 0, 0, fmt.Errorf("field: divergence needs physical-coordinate velocities")
	}
	if !f.MatchesGrid(g) {
		return 0, 0, fmt.Errorf("field: dims do not match grid")
	}
	var sum float64
	var n int
	m := g.Metric()
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				gu, gv, gw, ok := physicalGradients(g, m, f, i, j, k)
				if !ok {
					continue
				}
				div := float64(gu.X + gv.Y + gw.Z)
				if div < 0 {
					div = -div
				}
				sum += div
				if div > max {
					max = div
				}
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("field: no valid cells")
	}
	return sum / float64(n), max, nil
}
