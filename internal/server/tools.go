package server

// Shared field-diagnostic tools on the compute path. Isosurfaces,
// cutting planes, and vortex cores are whole-field products — their
// cost scales with the grid, not with a rake's seed row — so their
// rungs on the governor's ladder are cell strides. Under pressure the
// governor coarsens the march (stride 2, then 4) before any rake sheds
// a step; a tool is coarsened, never dropped. Geometry is memoized per
// (tool version, timestep, stride) exactly like per-rake geometry, and
// numbered by the same sequence counter so codec-v2 sessions and
// relays can delta it. A tool whose memo misses is recomputed on the
// round's pool (pool.go) beside the dirty rakes; this file decides what
// must be recomputed and holds the pieces the pool's units run.

import (
	"math"

	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/isosurf"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// toolUnitsPerCell prices one marched hexahedral cell (six
// tetrahedra) in §5.3 work units; planeUnitsPerNode prices one
// hedgehog sample on a cutting plane.
const (
	toolUnitsPerCell  = 8
	planeUnitsPerNode = 2
)

// toolStrides is the rungs the governor sheds shared tools along: full
// resolution, half, quarter. The last entry is the floor — a tool at
// stride 4 still renders, just coarser.
var toolStrides = [...]int{1, 2, 4}

// toolGeom memoizes one shared tool's geometry and the inputs it was
// computed from, mirroring rakeGeom: matching (version, step, stride)
// means the cached wire.ToolGeom is the answer.
type toolGeom struct {
	segCache
	have    bool
	version uint64
	step    int
	stride  int

	geo wire.ToolGeom

	// This round's recompute, when the memo missed: the parameters the
	// pool units read, the derived field they extract from, the marching
	// plan whose slabs they count and fill, and where the point records
	// start in the segment the fills write into.
	dirty    bool
	params   env.ToolParams
	from     toolField
	plan     isosurf.Plan
	segFirst int
}

// toolField names a per-timestep derived field of toolScalars: what a
// tool is extracted from.
type toolField uint8

const (
	fieldPhys  toolField = 1 << iota // physical velocity (cutting plane)
	fieldSpeed                       // its magnitude (isosurface scalar)
	fieldQ                           // its Q-criterion (vortex scalar)
)

// toolKinds is the static half of the shared-tool table, read beside
// the environment's snapshot (env.ToolsState) and indexed like it, in
// the fixed iso -> plane -> vortex order that tool sections, sequence
// numbers, relay directories and the governor's first ladder rows all
// depend on: what a tool costs at a stride in the governor's §5.3 work
// units, and the derived field its geometry is extracted from —
// marched as an isosurface, or, for fieldPhys, sampled as a hedgehog.
var toolKinds = [env.NumTools]struct {
	units func(g *grid.Grid, p env.ToolParams, stride int) int64
	from  toolField
}{
	{marchUnits, fieldSpeed},
	{planeUnits, fieldPhys},
	{marchUnits, fieldQ},
}

// wireTool is a tool's frame-visible state.
func wireTool(t env.ToolState) wire.ToolState {
	return wire.ToolState{Enabled: t.Params.Enabled, Axis: t.Params.Axis, Value: t.Params.Value, Holder: t.Holder}
}

func marchUnits(g *grid.Grid, _ env.ToolParams, stride int) int64 {
	return marchCells(g, stride) * toolUnitsPerCell
}

func planeUnits(g *grid.Grid, p env.ToolParams, stride int) int64 {
	return sliceNodes(g, p.Axis, stride) * planeUnitsPerNode
}

// toolScalars caches the per-timestep derived fields the tools share:
// the physical-velocity conversion of the loaded step, its speed
// magnitude (isosurface scalar), and its Q-criterion (vortex scalar),
// each in a buffer recycled from step to step. Keyed by the loaded
// field's identity and step so a step change — or a live ring
// regenerating in place under a new pointer — invalidates everything at
// once. have says which buffers hold the current step; todo which ones
// this round's pool is deriving.
type toolScalars struct {
	src   *field.Field
	step  int
	phys  *field.Field
	speed []float32
	q     []float32

	have, todo toolField
}

// invalidate forgets the derived fields if the loaded step changed.
func (tc *toolScalars) invalidate(cur *field.Field, step int) {
	if tc.src != cur || tc.step != step {
		tc.src, tc.step = cur, step
		tc.have = 0
	}
}

// derivable reports whether the loaded step can be converted to
// physical velocities on g at all; when it cannot, the tools emit empty
// geometry rather than failing the frame.
func (tc *toolScalars) derivable(g *grid.Grid) bool {
	return tc.src != nil && tc.src.Coords == field.GridCoords && tc.src.MatchesGrid(g)
}

// want schedules the derivation of the fields in need that the current
// step does not hold yet (speed and Q are derived from the physical
// velocity, so they pull it in), sizing their buffers on first use.
func (tc *toolScalars) want(g *grid.Grid, need toolField) {
	if need&(fieldSpeed|fieldQ) != 0 {
		need |= fieldPhys
	}
	tc.todo = need &^ tc.have
	n := g.NumNodes()
	if tc.todo&fieldPhys != 0 && (tc.phys == nil || !tc.phys.MatchesGrid(g)) {
		tc.phys = field.NewField(g.NI, g.NJ, g.NK, field.Physical)
	}
	if tc.todo&fieldSpeed != 0 && len(tc.speed) != n {
		tc.speed = make([]float32, n)
	}
	if tc.todo&fieldQ != 0 && len(tc.q) != n {
		tc.q = make([]float32, n)
	}
}

// derivePlanes converts the k-planes [k0, k1) of the loaded step to
// physical velocity and speed, as scheduled. Runs on pool workers over
// disjoint plane ranges.
func (tc *toolScalars) derivePlanes(g *grid.Grid, k0, k1 int) {
	if tc.todo&fieldPhys != 0 {
		field.PhysicalVelocityInto(tc.phys, tc.src, g.Metric(), k0, k1)
	}
	if tc.todo&fieldSpeed != 0 {
		plane := g.NI * g.NJ
		isosurf.SpeedInto(tc.speed, tc.phys, k0*plane, k1*plane)
	}
}

// scalar returns the derived scalar a marching tool extracts from.
func (tc *toolScalars) scalar(from toolField) []float32 {
	if from == fieldQ {
		return tc.q
	}
	return tc.speed
}

// marchCells counts the strided cells a surface extraction visits.
func marchCells(g *grid.Grid, stride int) int64 {
	span := func(n int) int64 {
		if n <= 1 {
			return 0
		}
		return int64((n-2)/stride + 1)
	}
	return span(g.NI) * span(g.NJ) * span(g.NK)
}

// sliceNodes counts the strided nodes on a cutting plane across axis.
func sliceNodes(g *grid.Grid, axis uint8, stride int) int64 {
	span := func(n int) int64 {
		if n <= 0 {
			return 0
		}
		return int64((n-1)/stride + 1)
	}
	switch axis {
	case 0:
		return span(g.NJ) * span(g.NK)
	case 1:
		return span(g.NI) * span(g.NK)
	default:
		return span(g.NI) * span(g.NJ)
	}
}

// collectToolsLocked is the tools' half of the collect stage: it gives
// the round a tool section when a tool is active (a never-touched
// environment ships no tool bytes), checks every enabled tool's memo
// against the stride the governor planned, marks the misses dirty for
// the pool, and schedules the derived fields they are extracted from.
// Caller holds s.mu.
func (s *Server) collectToolsLocked(g *grid.Grid, step int) {
	s.toolScal.todo = 0
	for i := range s.toolGeos {
		s.toolGeos[i].dirty = false
	}
	s.round.meta.Tools = nil
	if !s.toolSnap.Active() {
		return
	}
	s.round.meta.Tools = &s.round.tools
	s.toolScal.invalidate(s.cur, step)
	var need toolField
	for i, t := range s.toolSnap {
		if !t.Params.Enabled {
			continue
		}
		tg, stride, kind := &s.toolGeos[i], s.rows[i].stride, uint8(i+1)
		tg.fullU, tg.actualU = s.rows[i].units, s.rows[i].planned
		if tg.have && tg.version == t.Version && tg.step == step && tg.stride == stride {
			s.stats.ToolsReused++
			continue
		}
		tg.dirty, tg.params, tg.from = true, t.Params, toolKinds[i].from
		tg.geo = wire.ToolGeom{Tool: kind, Points: tg.geo.Points[:0]}
		tg.key, tg.sealed = -int32(kind), false
		tg.have, tg.version, tg.step, tg.stride = true, t.Version, step, stride
		need |= tg.from
	}
	if s.toolScal.derivable(g) {
		s.toolScal.want(g, need)
	}
}

// numberToolsLocked closes the tools' round once the pool is done: every
// recomputed tool takes the next geometry sequence number, in table
// order, and the enabled tools are assembled into the round's tool
// section and appended to the round list after the rakes. Returns the
// planned units the recomputed tools booked, for the governor's EWMA.
// Caller holds s.mu.
func (s *Server) numberToolsLocked() (units int64) {
	r := &s.round
	r.tools.Geoms = r.tools.Geoms[:0]
	if r.meta.Tools == nil {
		return 0
	}
	t := &s.toolSnap
	r.tools.Iso, r.tools.Plane, r.tools.Vortex = wireTool(t[0]), wireTool(t[1]), wireTool(t[2])
	s.toolScal.have |= s.toolScal.todo
	for i := range t {
		if !t[i].Params.Enabled {
			continue
		}
		tg := &s.toolGeos[i]
		if tg.dirty {
			tg.points = int64(len(tg.geo.Points))
			s.numberLocked(&tg.segCache)
			s.stats.ToolsComputed++
			units += tg.actualU
		}
		r.tools.Geoms = append(r.tools.Geoms, tg.geo)
		r.segs = append(r.segs, &tg.segCache)
	}
	return units
}

// hedgehogScale scales a node's physical velocity into its hedgehog
// segment on the cutting plane.
const hedgehogScale = 1.0

// appendPlaneHedgehog appends the cutting plane's hedgehog segments —
// one (root, root + v·scale) pair per strided node of the slice at
// frac along axis — in pinned node order.
func appendPlaneHedgehog(dst []vmath.Vec3, g *grid.Grid, phys *field.Field, axis uint8, frac float32, stride int) []vmath.Vec3 {
	if phys == nil {
		return dst
	}
	if stride < 1 {
		stride = 1
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	pick := func(n int) int {
		p := int(math.Round(float64(frac) * float64(n-1)))
		if p < 0 {
			p = 0
		}
		if p > n-1 {
			p = n - 1
		}
		return p
	}
	emit := func(i, j, k int) {
		idx := g.Index(i, j, k)
		root := vmath.Vec3{X: g.X[idx], Y: g.Y[idx], Z: g.Z[idx]}
		v := phys.At(i, j, k)
		dst = append(dst, root, root.Add(v.Scale(hedgehogScale)))
	}
	switch axis {
	case 0:
		i := pick(g.NI)
		for k := 0; k < g.NK; k += stride {
			for j := 0; j < g.NJ; j += stride {
				emit(i, j, k)
			}
		}
	case 1:
		j := pick(g.NJ)
		for k := 0; k < g.NK; k += stride {
			for i := 0; i < g.NI; i += stride {
				emit(i, j, k)
			}
		}
	default:
		k := pick(g.NK)
		for j := 0; j < g.NJ; j += stride {
			for i := 0; i < g.NI; i += stride {
				emit(i, j, k)
			}
		}
	}
	return dst
}

// validToolParams bounds a tool's parameters, from a client command or
// a seed: a finite value inside the tool's envelope — an iso level is a
// non-negative speed a sane dataset stays far below 1e6 of, a plane's
// fraction lies in [0,1], a Q threshold is signed and only screened for
// absurdity — and an axis only on the cutting plane, one of 0/1/2.
func validToolParams(id env.ToolID, p env.ToolParams) bool {
	if !finite32(p.Value) {
		return false
	}
	switch id {
	case env.ToolIso:
		return p.Axis == 0 && p.Value >= 0 && p.Value <= 1e6
	case env.ToolPlane:
		return p.Axis <= 2 && p.Value >= 0 && p.Value <= 1
	case env.ToolVortex:
		return p.Axis == 0 && p.Value >= -1e6 && p.Value <= 1e6
	}
	return false
}
