package server

// Shared field-diagnostic tools on the compute path. Isosurfaces,
// cutting planes, and vortex cores are whole-field products — their
// cost scales with the grid, not with a rake's seed row — so their
// rungs on the governor's ladder are cell strides. Under pressure the
// governor coarsens the march (stride 2, then 4) before any rake sheds
// a step; a tool is coarsened, never dropped. Geometry is memoized per
// (tool version, timestep, stride) exactly like per-rake geometry, and
// numbered by the same sequence counter so codec-v2 sessions and
// relays can delta it.

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

// numTools is the length of the shared-tool table; the first numTools
// rows of the governor's ladder are the tools, in table order.
const numTools = 3

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
}

// toolRow is one line of the shared-tool table: what ships (state),
// what the memo keys on (version), what the tool costs at a stride in
// the governor's §5.3 work units, and how its geometry is extracted.
// units and extract are static function values, so laying the table
// out allocates nothing.
type toolRow struct {
	kind    uint8
	state   wire.ToolState
	version uint64
	units   func(g *grid.Grid, st wire.ToolState, stride int) int64
	extract func(s *Server, dst []vmath.Vec3, g *grid.Grid, st wire.ToolState, stride int) []vmath.Vec3
}

// toolTable lays a tool snapshot out in the fixed iso -> plane ->
// vortex order that tool sections, sequence numbers, and relay
// directories all depend on.
func toolTable(t env.ToolsState) [numTools]toolRow {
	return [numTools]toolRow{
		{wire.ToolKindIso, wire.ToolState{
			Enabled: t.Iso.Params.Enabled, Value: t.Iso.Params.Level, Holder: t.Iso.Holder,
		}, t.Iso.Version, marchUnits, (*Server).extractIsoLocked},
		{wire.ToolKindPlane, wire.ToolState{
			Enabled: t.Plane.Params.Enabled, Axis: t.Plane.Params.Axis,
			Value: t.Plane.Params.Frac, Holder: t.Plane.Holder,
		}, t.Plane.Version, planeUnits, (*Server).extractPlaneLocked},
		{wire.ToolKindVortex, wire.ToolState{
			Enabled: t.Vortex.Params.Enabled, Value: t.Vortex.Params.Threshold, Holder: t.Vortex.Holder,
		}, t.Vortex.Version, marchUnits, (*Server).extractVortexLocked},
	}
}

func marchUnits(g *grid.Grid, _ wire.ToolState, stride int) int64 {
	return marchCells(g, stride) * toolUnitsPerCell
}

func planeUnits(g *grid.Grid, st wire.ToolState, stride int) int64 {
	return sliceNodes(g, st.Axis, stride) * planeUnitsPerNode
}

// The extractors emit empty geometry rather than failing the frame
// when a derived field is unavailable (nil). Caller holds s.mu.
func (s *Server) extractIsoLocked(dst []vmath.Vec3, g *grid.Grid, st wire.ToolState, stride int) []vmath.Vec3 {
	return appendExtract(dst, g, s.toolScal.speedField(g, s.cur), st.Value, stride, s.cfg.RakeWorkers)
}

func (s *Server) extractPlaneLocked(dst []vmath.Vec3, g *grid.Grid, st wire.ToolState, stride int) []vmath.Vec3 {
	return appendPlaneHedgehog(dst, g, s.toolScal.physical(g, s.cur), st.Axis, st.Value, stride)
}

func (s *Server) extractVortexLocked(dst []vmath.Vec3, g *grid.Grid, st wire.ToolState, stride int) []vmath.Vec3 {
	return appendExtract(dst, g, s.toolScal.qField(g, s.cur), st.Value, stride, s.cfg.RakeWorkers)
}

// toolScalars caches the per-timestep derived fields the tools share:
// the physical-velocity conversion of the loaded step, its speed
// magnitude (isosurface scalar), and its Q-criterion (vortex scalar).
// Keyed by the loaded field's identity and step so a step change — or
// a live ring regenerating in place under a new pointer — invalidates
// everything at once.
type toolScalars struct {
	src   *field.Field
	step  int
	phys  *field.Field
	speed []float32
	q     []float32
}

// invalidate drops the cache if the loaded step changed.
func (tc *toolScalars) invalidate(cur *field.Field, step int) {
	if tc.src != cur || tc.step != step {
		tc.src, tc.step = cur, step
		tc.phys, tc.speed, tc.q = nil, nil, nil
	}
}

// physical returns the physical-velocity field for the loaded step,
// converting once per step. A degenerate conversion yields nil and
// the tools emit empty geometry rather than failing the frame.
func (tc *toolScalars) physical(g *grid.Grid, cur *field.Field) *field.Field {
	if tc.phys == nil && cur != nil {
		if p, err := field.ToPhysicalVelocity(cur, g); err == nil {
			tc.phys = p
		}
	}
	return tc.phys
}

// speedField returns the cached node speed scalar, building it on
// first use per step.
func (tc *toolScalars) speedField(g *grid.Grid, cur *field.Field) []float32 {
	if tc.speed == nil {
		if p := tc.physical(g, cur); p != nil {
			tc.speed = isosurf.SpeedField(p)
		}
	}
	return tc.speed
}

// qField returns the cached node Q-criterion scalar, building it on
// first use per step.
func (tc *toolScalars) qField(g *grid.Grid, cur *field.Field) []float32 {
	if tc.q == nil {
		if p := tc.physical(g, cur); p != nil {
			if q, err := field.QCriterion(g, p); err == nil {
				tc.q = q
			}
		}
	}
	return tc.q
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

// computeToolsLocked recomputes every enabled tool whose inputs —
// the stride the governor planned among them — changed, reusing
// memoized geometry for the rest, assembles the round's tool section,
// and appends the tools to the round list after the rakes. A recomputed
// tool takes the next geometry sequence number here, in table order.
// Returns the work actually done, for the governor's EWMA. Caller holds
// s.mu.
func (s *Server) computeToolsLocked(g *grid.Grid, step int) (unitsDone int64) {
	s.haveTools = s.toolSnap.Active()
	s.toolGeomWire = s.toolGeomWire[:0]
	if !s.haveTools {
		return 0
	}
	table := toolTable(s.toolSnap)
	s.toolsMeta = wire.ToolsReply{Iso: table[0].state, Plane: table[1].state, Vortex: table[2].state}
	s.toolScal.invalidate(s.cur, step)
	for i, t := range table {
		if !t.state.Enabled {
			continue
		}
		tg, stride := &s.toolGeos[i], s.rows[i].stride
		tg.fullU, tg.actualU = s.rows[i].units, s.rows[i].planned
		if tg.have && tg.version == t.version && tg.step == step && tg.stride == stride {
			s.stats.ToolsReused++
		} else {
			tg.geo = wire.ToolGeom{Tool: t.kind, Points: t.extract(s, tg.geo.Points[:0], g, t.state, stride)}
			tg.key, tg.points = -int32(t.kind), int64(len(tg.geo.Points))
			tg.have, tg.version, tg.step, tg.stride = true, t.version, step, stride
			s.geoSeq++
			tg.seq = s.geoSeq
			s.stats.ToolsComputed++
			unitsDone += tg.actualU
		}
		s.toolGeomWire = append(s.toolGeomWire, tg.geo)
		s.roundSegs = append(s.roundSegs, &tg.segCache)
	}
	s.toolsMeta.Geoms = s.toolGeomWire
	return unitsDone
}

// appendExtract marches the iso-valued surface of scalar and appends
// the triangle soup to dst as flat points. The extraction order is
// pinned (see isosurf.ExtractParallel), so two servers at the same
// (scalar, level, stride) append identical point streams.
func appendExtract(dst []vmath.Vec3, g *grid.Grid, scalar []float32, level float32, stride, workers int) []vmath.Vec3 {
	if scalar == nil {
		return dst
	}
	tris, err := isosurf.ExtractParallel(g, scalar, level, stride, workers)
	if err != nil {
		return dst
	}
	for _, t := range tris {
		dst = append(dst, t[0], t[1], t[2])
	}
	return dst
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

// validIsoLevel bounds a client-supplied iso level: speed magnitudes
// are non-negative and a sane dataset stays far below the cap.
func validIsoLevel(v float32) bool {
	return finite32(v) && v >= 0 && v <= 1e6
}

// validVortexThreshold bounds a client-supplied Q threshold.
// Q-criterion values are signed; the cap only screens absurdity.
func validVortexThreshold(v float32) bool {
	return finite32(v) && v >= -1e6 && v <= 1e6
}
