// Package grid implements the curvilinear computational grids on which
// the windtunnel's flowfields live. A grid stores the physical position
// of each node indexed by integer computational coordinates (i, j, k).
//
// Following §2.1 of the paper, all particle integration happens in
// computational ("grid") coordinates: velocities are pre-converted to
// grid coordinates once per dataset, so each integration step needs
// only array indexing and trilinear interpolation — never a search of
// the curvilinear grid. Paths are converted back to physical
// coordinates by direct lookup of node positions with trilinear
// interpolation.
//
//vw:deterministic
package grid

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/vmath"
)

// Grid is a structured curvilinear grid of NI x NJ x NK nodes. Node
// (i, j, k) has physical position (X[idx], Y[idx], Z[idx]) with
// idx = (k*NJ + j)*NI + i; i varies fastest, matching PLOT3D ordering.
//
// A grid is built once (New, then SetAt or writes through X, Y, Z) and
// then shared read-only: Metric memoizes a table derived from the node
// positions, so a position written through the slices after the first
// Metric call leaves that table stale. SetAt drops it.
type Grid struct {
	NI, NJ, NK int
	X, Y, Z    []float32

	metric   atomic.Pointer[Metric]
	metricMu sync.Mutex // serializes the one build
}

// New allocates an empty grid of the given dimensions. Each dimension
// must be at least 2 so every cell has a full trilinear stencil.
func New(ni, nj, nk int) (*Grid, error) {
	if ni < 2 || nj < 2 || nk < 2 {
		return nil, fmt.Errorf("grid: dimensions %dx%dx%d too small (need >= 2 each)", ni, nj, nk)
	}
	n := ni * nj * nk
	return &Grid{
		NI: ni, NJ: nj, NK: nk,
		X: make([]float32, n),
		Y: make([]float32, n),
		Z: make([]float32, n),
	}, nil
}

// NumNodes returns the total number of grid nodes.
func (g *Grid) NumNodes() int { return g.NI * g.NJ * g.NK }

// Index returns the linear index of node (i, j, k). It does not bounds
// check; callers on hot paths have already validated.
func (g *Grid) Index(i, j, k int) int { return (k*g.NJ+j)*g.NI + i }

// At returns the physical position of node (i, j, k).
func (g *Grid) At(i, j, k int) vmath.Vec3 {
	idx := g.Index(i, j, k)
	return vmath.Vec3{X: g.X[idx], Y: g.Y[idx], Z: g.Z[idx]}
}

// SetAt sets the physical position of node (i, j, k) and drops the
// memoized metric, which the next Metric call rebuilds. It must not run
// concurrently with readers of the grid.
//
//vw:testonly
func (g *Grid) SetAt(i, j, k int, p vmath.Vec3) {
	idx := g.Index(i, j, k)
	g.X[idx], g.Y[idx], g.Z[idx] = p.X, p.Y, p.Z
	if g.metric.Load() != nil {
		g.metric.Store(nil)
	}
}

// InBounds reports whether the grid coordinate gc lies inside the
// grid's computational domain [0, NI-1] x [0, NJ-1] x [0, NK-1].
func (g *Grid) InBounds(gc vmath.Vec3) bool {
	return gc.X >= 0 && gc.X <= float32(g.NI-1) &&
		gc.Y >= 0 && gc.Y <= float32(g.NJ-1) &&
		gc.Z >= 0 && gc.Z <= float32(g.NK-1)
}

// ClampToBounds returns gc clamped into the computational domain.
func (g *Grid) ClampToBounds(gc vmath.Vec3) vmath.Vec3 {
	return vmath.Vec3{
		X: clamp(gc.X, 0, float32(g.NI-1)),
		Y: clamp(gc.Y, 0, float32(g.NJ-1)),
		Z: clamp(gc.Z, 0, float32(g.NK-1)),
	}
}

func clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Cell is a located trilinear stencil: the linear index of a cell's
// origin node and the fractional offsets inside it. Locating is the
// clamp / split work a sample does once; every node-indexed array
// sharing the grid's dimensions — the three position components, the
// three velocity components of any timestep — interpolates from the
// same Cell.
type Cell struct {
	Base       int
	FX, FY, FZ float32
}

// Locate clamps gc into the computational domain and splits it into
// its cell. Coordinates on the high boundary fold into the last cell
// (origin n-2, fraction 1) so interpolation stays in range; a NaN
// coordinate lands in cell 0 with a NaN fraction.
func (g *Grid) Locate(gc vmath.Vec3) Cell {
	i0, fx := splitCoord(gc.X, g.NI)
	j0, fy := splitCoord(gc.Y, g.NJ)
	k0, fz := splitCoord(gc.Z, g.NK)
	return Cell{Base: (k0*g.NJ+j0)*g.NI + i0, FX: fx, FY: fy, FZ: fz}
}

// splitCoord clamps c to [0, n-1] and splits it into a cell origin and
// a fraction. The clamped coordinate is non-negative (or NaN), so the
// integer conversion truncating toward zero is its floor.
func splitCoord(c float32, n int) (int, float32) {
	c = clamp(c, 0, float32(n-1))
	i := int(c)
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	return i, c - float32(i)
}

// PhysAt returns the physical position corresponding to grid
// coordinate gc, by trilinear interpolation of node positions. gc is
// clamped to the computational domain.
func (g *Grid) PhysAt(gc vmath.Vec3) vmath.Vec3 {
	x, y, z := g.Interp3(g.X, g.Y, g.Z, g.Locate(gc))
	return vmath.Vec3{X: x, Y: y, Z: z}
}

// Interp3 performs trilinear interpolation of three node-indexed scalar
// arrays (len == NumNodes each) at one located cell: the components of
// a position or of a velocity. Per array this is the "eight floating
// point loads plus a trilinear interpolation" the paper counts per
// component per point (§5.3); the stencil's indices are worked out once
// for all three. Interp3x4 is Interp3 at four cells at once, and
// Interp3 is the reference it is tested against.
func (g *Grid) Interp3(u, v, w []float32, c Cell) (x, y, z float32) {
	ni := g.NI
	slab := g.NI * g.NJ
	i000 := c.Base
	i100, i010, i110 := i000+1, i000+ni, i000+ni+1
	i001, i101, i011, i111 := i000+slab, i000+slab+1, i000+slab+ni, i000+slab+ni+1
	interp := func(a []float32) float32 {
		_ = a[i111] // the stencil's highest index
		c00 := a[i000] + c.FX*(a[i100]-a[i000])
		c10 := a[i010] + c.FX*(a[i110]-a[i010])
		c01 := a[i001] + c.FX*(a[i101]-a[i001])
		c11 := a[i011] + c.FX*(a[i111]-a[i011])

		c0 := c00 + c.FY*(c10-c00)
		c1 := c01 + c.FY*(c11-c01)
		return c0 + c.FZ*(c1-c0)
	}
	return interp(u), interp(v), interp(w)
}

// Bounds returns the physical axis-aligned bounding box of all nodes.
func (g *Grid) Bounds() vmath.AABB {
	b := vmath.NewAABB()
	for i := range g.X {
		b = b.Extend(vmath.Vec3{X: g.X[i], Y: g.Y[i], Z: g.Z[i]})
	}
	return b
}

// Jacobian returns the 3x3 Jacobian d(phys)/d(grid) at grid coordinate
// gc, estimated by central differences of the trilinear position map.
// Columns are the physical-space derivatives along i, j, k.
//
//vw:testonly
func (g *Grid) Jacobian(gc vmath.Vec3) (cols [3]vmath.Vec3) {
	const h = 0.25
	for axis := 0; axis < 3; axis++ {
		lo, hi := gc, gc
		switch axis {
		case 0:
			lo.X -= h
			hi.X += h
		case 1:
			lo.Y -= h
			hi.Y += h
		case 2:
			lo.Z -= h
			hi.Z += h
		}
		lo = g.ClampToBounds(lo)
		hi = g.ClampToBounds(hi)
		var span float32
		switch axis {
		case 0:
			span = hi.X - lo.X
		case 1:
			span = hi.Y - lo.Y
		case 2:
			span = hi.Z - lo.Z
		}
		if span == 0 {
			span = 1
		}
		cols[axis] = g.PhysAt(hi).Sub(g.PhysAt(lo)).Scale(1 / span)
	}
	return cols
}

// Metric is the grid's Jacobian at every node, indexed like X, Y, Z:
// Metric[idx] holds the three columns Jacobian returns at node idx's
// integer coordinate. It depends on the grid alone, so the per-node
// conversions between physical and grid-coordinate velocities (§2.1's
// "once per dataset") and the physical-space gradients read it instead
// of re-deriving six interpolated positions per node per timestep.
type Metric [][3]vmath.Vec3

// Metric returns the grid's node metric, building it on the first call
// (one Jacobian per node, so every entry is bit-for-bit what Jacobian
// returns there) and memoizing it on the grid. Safe for concurrent use;
// the returned table is shared and must not be written.
func (g *Grid) Metric() Metric {
	if m := g.metric.Load(); m != nil {
		return *m
	}
	g.metricMu.Lock()
	defer g.metricMu.Unlock()
	if m := g.metric.Load(); m != nil {
		return *m
	}
	m := make(Metric, g.NumNodes())
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				m[g.Index(i, j, k)] = g.Jacobian(vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)})
			}
		}
	}
	g.metric.Store(&m)
	return m
}

// errNotFound is returned by PhysToGrid when the physical point cannot
// be located inside the grid.
var errNotFound = errors.New("grid: physical point outside grid")

// PhysToGrid locates the grid coordinate whose physical image is p,
// starting the search from the guess coordinate (pass the previous
// particle position for fast coherent lookups). It uses damped Newton
// iteration on the trilinear map — the "search of the curvilinear
// grid" whose per-step cost the paper avoids by integrating in grid
// coordinates. It exists both for seeding tools from physical space
// (rake handles live in physical coordinates) and as the baseline for
// the grid-coordinate ablation benchmark.
func (g *Grid) PhysToGrid(p vmath.Vec3, guess vmath.Vec3) (vmath.Vec3, error) {
	gc := g.ClampToBounds(guess)
	const maxIter = 50
	for iter := 0; iter < maxIter; iter++ {
		cur := g.PhysAt(gc)
		resid := p.Sub(cur)
		if resid.Len() < 1e-5 {
			return gc, nil
		}
		cols := g.Jacobian(gc)
		step, ok := solve3(cols, resid)
		if !ok {
			return vmath.Vec3{}, errNotFound
		}
		// Damp large steps so the walk cannot jump over thin cells.
		const maxStep = 2.0
		if l := step.Len(); l > maxStep {
			step = step.Scale(maxStep / l)
		}
		gc = g.ClampToBounds(gc.Add(step))
	}
	// Accept if converged to the boundary of the domain nearest p.
	if g.PhysAt(gc).Dist(p) < 1e-3 {
		return gc, nil
	}
	return vmath.Vec3{}, errNotFound
}

// solve3 solves the 3x3 system [c0 c1 c2] x = b by Cramer's rule.
func solve3(cols [3]vmath.Vec3, b vmath.Vec3) (vmath.Vec3, bool) {
	det := cols[0].Dot(cols[1].Cross(cols[2]))
	if absf(det) < 1e-12 {
		return vmath.Vec3{}, false
	}
	inv := 1 / det
	x := b.Dot(cols[1].Cross(cols[2])) * inv
	y := cols[0].Dot(b.Cross(cols[2])) * inv
	z := cols[0].Dot(cols[1].Cross(b)) * inv
	return vmath.Vec3{X: x, Y: y, Z: z}, true
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// validate checks structural invariants: coordinate array lengths match
// the dimensions and all node positions are finite.
func (g *Grid) validate() error {
	n := g.NumNodes()
	if len(g.X) != n || len(g.Y) != n || len(g.Z) != n {
		return fmt.Errorf("grid: coordinate arrays have %d/%d/%d entries, want %d",
			len(g.X), len(g.Y), len(g.Z), n)
	}
	for i := 0; i < n; i++ {
		p := vmath.Vec3{X: g.X[i], Y: g.Y[i], Z: g.Z[i]}
		if !p.IsFinite() {
			return fmt.Errorf("grid: node %d has non-finite position %v", i, p)
		}
	}
	return nil
}
