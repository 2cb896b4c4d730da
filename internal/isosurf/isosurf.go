// Package isosurf extracts isosurfaces from scalar fields on
// curvilinear grids by marching tetrahedra. The paper rules
// isosurfaces out of the interactive toolset — "interactive
// isosurfaces, which require computationally intensive algorithms such
// as marching cubes, can not [be used]" (§1.2) — an exclusion VFIVE
// (Ohno et al., PAPERS.md) later lifted and this windtunnel lifts too:
// the server's shared isosurface and vortex-core tools march through a
// Plan on the round's worker pool every time their level or timestep
// changes, under the frame-budget governor's stride ladder. Extract is
// the one-shot form, which EXPERIMENTS.md times at the paper's grid
// scale against the 1/8-second budget.
//
//vw:deterministic
package isosurf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// Triangle is one isosurface facet in physical coordinates.
type Triangle [3]vmath.Vec3

// tets lists the six tetrahedra that tile a hexahedral cell, as
// indices into the cell's eight corners (bit 0 = +i, bit 1 = +j,
// bit 2 = +k).
var tets = [6][4]int{
	{0, 5, 1, 3},
	{0, 5, 3, 7},
	{0, 5, 7, 4},
	{0, 3, 2, 7},
	{0, 2, 6, 7},
	{0, 6, 4, 7},
}

// tetEdges lists, per inside-mask of a tetrahedron's four corners (bit
// n = tet-local corner n at or above the level), the edges whose
// crossings are the emitted points, as (a, b) corner pairs, three pairs
// a triangle. The 14 non-trivial masks reduce to 7 by complement: one
// corner isolated -> one triangle; two-and-two -> a quad a, b, c, d cut
// into (a, b, c) and (a, c, d). Counting and filling both read this
// table, so they cannot disagree about what a cell emits.
var tetEdges = [16][]uint8{
	0x1: {0, 1, 0, 2, 0, 3}, 0xE: {0, 1, 0, 2, 0, 3},
	0x2: {1, 0, 1, 3, 1, 2}, 0xD: {1, 0, 1, 3, 1, 2},
	0x4: {2, 0, 2, 1, 2, 3}, 0xB: {2, 0, 2, 1, 2, 3},
	0x8: {3, 0, 3, 2, 3, 1}, 0x7: {3, 0, 3, 2, 3, 1},
	0x3: {0, 2, 0, 3, 1, 3, 0, 2, 1, 3, 1, 2}, 0xC: {0, 2, 0, 3, 1, 3, 0, 2, 1, 3, 1, 2},
	0x5: {0, 1, 0, 3, 2, 3, 0, 1, 2, 3, 2, 1}, 0xA: {0, 1, 0, 3, 2, 3, 0, 1, 2, 3, 2, 1},
	0x6: {1, 0, 1, 3, 2, 3, 1, 0, 2, 3, 2, 0}, 0x9: {1, 0, 1, 3, 2, 3, 1, 0, 2, 3, 2, 0},
}

// Extract returns the triangles of the iso-valued surface of the
// node-indexed scalar array on grid g. The scalar must have one value
// per grid node.
func Extract(g *grid.Grid, scalar []float32, iso float32) ([]Triangle, error) {
	return extractStride(g, scalar, iso, 1)
}

// extractStride marches coarsened cells: each cell spans stride nodes
// per axis (clamped at the far boundary), so stride 2 visits ~1/8 the
// cells of stride 1. This is the fidelity axis the frame-budget
// governor sheds shared tools along — a coarser surface, never a
// missing one.
//
// Triangle emission order is pinned: cells in k-major/j/i order,
// tetrahedra in table order within a cell. Two servers extracting the
// same (scalar, iso, stride) emit identical triangle streams, which is
// what lets tool geometry bytes be compared across servers and shipped
// through relays verbatim.
func extractStride(g *grid.Grid, scalar []float32, iso float32, stride int) ([]Triangle, error) {
	return ExtractParallel(g, scalar, iso, stride, 1)
}

// ExtractParallel is extractStride with the k-slabs marched by up to
// workers goroutines (the caller is one of them). It runs a Plan: every
// slab is counted, the counts fix each slab's range of the output, and
// the slabs then march into their own ranges — so the emitted stream is
// the serial order whichever goroutine marches which slab, with no
// per-slab pieces to merge.
func ExtractParallel(g *grid.Grid, scalar []float32, iso float32, stride, workers int) ([]Triangle, error) {
	var p Plan
	if err := p.Reset(g, scalar, iso, stride, workers); err != nil {
		return nil, err
	}
	workers = min(workers, p.Slabs())
	eachSlab(&p, workers, (*Plan).Count)
	pts := make([]vmath.Vec3, p.Layout())
	eachSlab(&p, workers, func(p *Plan, s int) { p.Fill(s, pts) })
	out := make([]Triangle, len(pts)/3)
	for i := range out {
		out[i] = Triangle{pts[3*i], pts[3*i+1], pts[3*i+2]}
	}
	return out, nil
}

// eachSlab calls do for every slab of p from workers goroutines that
// claim slab numbers from a shared counter, and returns when all are
// done. The caller is worker 0; one worker starts no goroutine.
func eachSlab(p *Plan, workers int, do func(*Plan, int)) {
	var next atomic.Int64
	claim := func() {
		for s := int(next.Add(1)) - 1; s < p.Slabs(); s = int(next.Add(1)) - 1 {
			do(p, s)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Plan is one extraction split into k-slabs that independent workers
// march straight into one shared point buffer: Reset, Count every slab,
// Layout, size the buffer, Fill every slab. Count and Fill of distinct
// slabs may run concurrently; Layout runs between the two passes, alone.
// A Plan is recycled across extractions and allocates only when the
// slab count grows.
type Plan struct {
	g      *grid.Grid
	scalar []float32
	iso    float32
	stride int
	slabs  []slab
}

// slab is the strided k-rows [k0, k1) of one extraction, the points
// they emit, and where those points start in the output.
type slab struct {
	k0, k1      int
	points, off int
}

// Reset plans the extraction of scalar's iso surface on g at the given
// cell stride, split into at most parts slabs of whole strided k-rows.
func (p *Plan) Reset(g *grid.Grid, scalar []float32, iso float32, stride, parts int) error {
	if len(scalar) != g.NumNodes() {
		return fmt.Errorf("isosurf: scalar has %d values for %d nodes", len(scalar), g.NumNodes())
	}
	if stride < 1 {
		return fmt.Errorf("isosurf: stride %d < 1", stride)
	}
	p.g, p.scalar, p.iso, p.stride = g, scalar, iso, stride
	p.slabs = p.slabs[:0]
	rows := (g.NK-2)/stride + 1 // strided k values below NK-1
	per := (rows + max(parts, 1) - 1) / max(parts, 1)
	for r := 0; r < rows; r += per {
		p.slabs = append(p.slabs, slab{k0: r * stride, k1: min((r+per)*stride, g.NK-1)})
	}
	return nil
}

// Slabs returns how many slabs the plan was split into.
func (p *Plan) Slabs() int { return len(p.slabs) }

// Count records how many points slab s emits.
func (p *Plan) Count(s int) {
	sl := &p.slabs[s]
	sl.points = p.march(sl.k0, sl.k1, nil)
}

// Layout places the counted slabs end to end in ascending k — the
// serial emission order — and returns the total point count (three per
// triangle).
func (p *Plan) Layout() int {
	total := 0
	for s := range p.slabs {
		p.slabs[s].off = total
		total += p.slabs[s].points
	}
	return total
}

// Fill marches slab s into its range [lo, hi) of dst, which holds at
// least Layout's total.
func (p *Plan) Fill(s int, dst []vmath.Vec3) (lo, hi int) {
	sl := &p.slabs[s]
	lo, hi = sl.off, sl.off+sl.points
	if lo < hi {
		p.march(sl.k0, sl.k1, dst[lo:hi])
	}
	return lo, hi
}

// march visits the strided cells whose low-k corner lies in [k0, k1) in
// pinned k/j/i order and returns the number of points they emit; with a
// non-nil dst it also writes them there. Along a row the four corners at
// a cell's high-i face are the next cell's low-i face, so each cell
// loads and classifies four scalars; positions are gathered only where
// the surface crosses.
//
//vw:hotpath
func (p *Plan) march(k0, k1 int, dst []vmath.Vec3) int {
	g, scalar, iso, stride := p.g, p.scalar, p.iso, p.stride
	var vals [8]float32
	var pos [8]vmath.Vec3
	n := 0
	for k := k0; k < k1; k += stride {
		dk := (min(k+stride, g.NK-1) - k) * g.NI * g.NJ
		for j := 0; j < g.NJ-1; j += stride {
			dj := (min(j+stride, g.NJ-1) - j) * g.NI
			// rows holds the node index of the cell's four i-edges at
			// i = 0, in corner order: (j, k), (j+, k), (j, k+), (j+, k+).
			r0 := g.Index(0, j, k)
			rows := [4]int{r0, r0 + dj, r0 + dk, r0 + dj + dk}
			for e, r := range rows {
				vals[2*e+1] = scalar[r]
			}
			hiMask := faceMask(&vals, iso)
			for i := 0; i < g.NI-1; i += stride {
				iHi := min(i+stride, g.NI-1)
				mask := hiMask >> 1 // the last cell's high face is this one's low face
				for e, r := range rows {
					vals[2*e] = vals[2*e+1]
					vals[2*e+1] = scalar[r+iHi]
				}
				hiMask = faceMask(&vals, iso)
				mask |= hiMask
				if mask == 0 || mask == 0xFF {
					continue // cell entirely on one side
				}
				if dst != nil {
					for e, r := range rows {
						lo, hi := r+i, r+iHi
						pos[2*e] = vmath.Vec3{X: g.X[lo], Y: g.Y[lo], Z: g.Z[lo]}
						pos[2*e+1] = vmath.Vec3{X: g.X[hi], Y: g.Y[hi], Z: g.Z[hi]}
					}
				}
				for t := range tets {
					tet := &tets[t]
					edges := tetEdges[mask>>tet[0]&1|mask>>tet[1]&1<<1|mask>>tet[2]&1<<2|mask>>tet[3]&1<<3]
					if dst != nil {
						for e := 0; e < len(edges); e += 2 {
							dst[n+e/2] = crossing(&vals, &pos, tet[edges[e]], tet[edges[e+1]], iso)
						}
					}
					n += len(edges) / 2
				}
			}
		}
	}
	return n
}

// faceMask classifies the four high-i corners of a cell (the odd
// entries of vals) against the level, as their bits of the cell's
// corner mask.
func faceMask(vals *[8]float32, iso float32) int {
	var m int
	for c := 1; c < 8; c += 2 {
		if vals[c] >= iso {
			m |= 1 << c
		}
	}
	return m
}

// crossing interpolates the point where the level crosses the cell edge
// between corners a and b.
func crossing(vals *[8]float32, pos *[8]vmath.Vec3, a, b int, iso float32) vmath.Vec3 {
	va, vb := vals[a], vals[b]
	t := float32(0.5)
	if va != vb {
		t = (iso - va) / (vb - va)
	}
	return pos[a].Lerp(pos[b], t)
}

// SpeedField returns the node-indexed velocity magnitude of a field —
// the scalar whose isosurfaces bound recirculation and jet regions.
func SpeedField(f *field.Field) []float32 {
	out := make([]float32, f.NumNodes())
	SpeedInto(out, f, 0, len(out))
	return out
}

// SpeedInto is SpeedField's loop over the nodes [lo, hi), writing into
// dst: the form a caller that recycles dst across timesteps, or splits
// the nodes over workers, uses.
//
//vw:hotpath
func SpeedInto(dst []float32, f *field.Field, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := vmath.Vec3{X: f.U[i], Y: f.V[i], Z: f.W[i]}
		dst[i] = v.Len()
	}
}
