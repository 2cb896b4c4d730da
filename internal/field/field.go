// Package field represents the velocity data of unsteady flowfields.
//
// A flowfield (§1.1 of the paper) is the time-dependent velocity
// vector part of a CFD solution: a sequence of timesteps, each a 3-D
// velocity vector field sampled at the nodes of a curvilinear grid.
// Velocities may be stored in physical coordinates (as a solver
// produces them) or pre-converted to grid coordinates (as the
// windtunnel integrates them, §2.1).
//
//vw:deterministic
package field

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// CoordSystem records which coordinate system a field's velocity
// vectors are expressed in.
type CoordSystem uint8

const (
	// Physical velocity: units of physical length per unit time.
	Physical CoordSystem = iota
	// GridCoords velocity: units of grid cells per unit time, the
	// paper's integration-friendly representation.
	GridCoords
)

func (c CoordSystem) String() string {
	switch c {
	case Physical:
		return "physical"
	case GridCoords:
		return "grid"
	default:
		return fmt.Sprintf("CoordSystem(%d)", uint8(c))
	}
}

// Field is one timestep of velocity data on an NI x NJ x NK node grid,
// stored as separate component arrays (structure-of-arrays) so the
// vectorized compute engine can stream whole components.
//
// A component may be memory the Field owns rather than the Go heap (a
// store.Disk step maps its file, released once the *Field is
// unreachable): a bare U, V or W does not keep it alive, so a reader
// holds the *Field for as long as it reads them.
type Field struct {
	NI, NJ, NK int
	Coords     CoordSystem
	U, V, W    []float32
}

// NewField allocates a zero field of the given dimensions.
func NewField(ni, nj, nk int, coords CoordSystem) *Field {
	n := ni * nj * nk
	return &Field{
		NI: ni, NJ: nj, NK: nk,
		Coords: coords,
		U:      make([]float32, n),
		V:      make([]float32, n),
		W:      make([]float32, n),
	}
}

// NumNodes returns the number of sample points.
func (f *Field) NumNodes() int { return f.NI * f.NJ * f.NK }

// SizeBytes returns the in-memory/on-disk payload size of the field:
// three 4-byte components per node, the figure Table 2 is built on.
func (f *Field) SizeBytes() int64 { return int64(f.NumNodes()) * 12 }

// Index returns the linear index of node (i, j, k).
//
//vw:testonly
func (f *Field) Index(i, j, k int) int { return (k*f.NJ+j)*f.NI + i }

// At returns the velocity at node (i, j, k).
func (f *Field) At(i, j, k int) vmath.Vec3 {
	idx := f.Index(i, j, k)
	return vmath.Vec3{X: f.U[idx], Y: f.V[idx], Z: f.W[idx]}
}

// SetAt sets the velocity at node (i, j, k).
func (f *Field) SetAt(i, j, k int, v vmath.Vec3) {
	idx := f.Index(i, j, k)
	f.U[idx], f.V[idx], f.W[idx] = v.X, v.Y, v.Z
}

// Sample returns the velocity at grid coordinate gc by trilinear
// interpolation over g, which must share the field's dimensions.
func (f *Field) Sample(g *grid.Grid, gc vmath.Vec3) vmath.Vec3 {
	return f.sampleCell(g, g.Locate(gc))
}

// sampleCell interpolates all three components at an already located
// cell, so a caller sampling several timesteps at one position locates
// once.
func (f *Field) sampleCell(g *grid.Grid, c grid.Cell) vmath.Vec3 {
	x, y, z := g.Interp3(f.U, f.V, f.W, c)
	return vmath.Vec3{X: x, Y: y, Z: z}
}

// MatchesGrid reports whether the field's dimensions equal the grid's.
func (f *Field) MatchesGrid(g *grid.Grid) bool {
	return f.NI == g.NI && f.NJ == g.NJ && f.NK == g.NK
}

// Validate checks dimensional invariants and that all samples are
// finite.
func (f *Field) Validate() error {
	n := f.NumNodes()
	if len(f.U) != n || len(f.V) != n || len(f.W) != n {
		return fmt.Errorf("field: component arrays have %d/%d/%d entries, want %d",
			len(f.U), len(f.V), len(f.W), n)
	}
	for i := 0; i < n; i++ {
		v := vmath.Vec3{X: f.U[i], Y: f.V[i], Z: f.W[i]}
		if !v.IsFinite() {
			return fmt.Errorf("field: node %d has non-finite velocity %v", i, v)
		}
	}
	return nil
}

// ToGridCoords converts a physical-coordinate field to grid
// coordinates in place by applying the inverse grid Jacobian at every
// node: u_grid = J^-1 u_phys. This is the paper's §2.1 preprocessing
// step that lets all integration happen with pure array lookups. Each
// node's result reads only that node's velocity and metric, so the
// in-place form is exact and a dataset is never held twice. The
// Jacobians come from g.Metric, computed once per grid, so a dataset's
// timesteps (or a live solver's snapshots) pay only the 3x3 solve.
func ToGridCoords(f *Field, g *grid.Grid) error {
	if f.Coords == GridCoords {
		return fmt.Errorf("field: already in grid coordinates")
	}
	if !f.MatchesGrid(g) {
		return fmt.Errorf("field: dims %dx%dx%d do not match grid %dx%dx%d",
			f.NI, f.NJ, f.NK, g.NI, g.NJ, g.NK)
	}
	for idx, cols := range g.Metric() {
		// A degenerate cell (e.g. a collapsed pole line) gets +0 rather
		// than huge values that would poison paths: vmath.Solve3
		// returns the zero vector there.
		ugrid, _ := vmath.Solve3(cols, vmath.Vec3{X: f.U[idx], Y: f.V[idx], Z: f.W[idx]})
		f.U[idx], f.V[idx], f.W[idx] = ugrid.X, ugrid.Y, ugrid.Z
	}
	f.Coords = GridCoords
	return nil
}

// ToPhysicalVelocity converts a grid-coordinate field back to
// physical velocities by applying the grid Jacobian at every node:
// u_phys = J u_grid — the inverse of ToGridCoords, used by the shared
// field-diagnostic tools whose scalars (speed, Q-criterion) are only
// meaningful in physical space.
func ToPhysicalVelocity(f *Field, g *grid.Grid) (*Field, error) {
	if f.Coords == Physical {
		return nil, fmt.Errorf("field: already in physical coordinates")
	}
	if !f.MatchesGrid(g) {
		return nil, fmt.Errorf("field: dims %dx%dx%d do not match grid %dx%dx%d",
			f.NI, f.NJ, f.NK, g.NI, g.NJ, g.NK)
	}
	out := NewField(f.NI, f.NJ, f.NK, Physical)
	PhysicalVelocityInto(out, f, g.Metric(), 0, f.NK)
	return out, nil
}

// PhysicalVelocityInto is ToPhysicalVelocity's loop over the k-planes
// [k0, k1), writing into dst's arrays: the form a caller that recycles
// dst across timesteps, or splits the planes over workers, uses. dst
// and f share dimensions with the grid m was taken from; disjoint
// plane ranges may run concurrently.
//
//vw:hotpath
func PhysicalVelocityInto(dst, f *Field, m grid.Metric, k0, k1 int) {
	plane := f.NI * f.NJ
	for idx := k0 * plane; idx < k1*plane; idx++ {
		cols := &m[idx]
		ux, uy, uz := f.U[idx], f.V[idx], f.W[idx]
		dst.U[idx] = cols[0].X*ux + cols[1].X*uy + cols[2].X*uz
		dst.V[idx] = cols[0].Y*ux + cols[1].Y*uy + cols[2].Y*uz
		dst.W[idx] = cols[0].Z*ux + cols[1].Z*uy + cols[2].Z*uz
	}
}
