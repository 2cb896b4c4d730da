package wire

// Shared field-diagnostic tools on the wire. Unlike rakes — of which
// there may be any number — there is exactly one isosurface, one
// cutting plane, and one vortex-core extractor per environment, so the
// tool section is a fixed triple of states plus up to three geometry
// records. The section is optional and trailing in both codecs:
// codec-v1 decoders have always ignored nothing-after-geometry, and
// codec v2 appends the section between the geometry directory and its
// trailing-bytes check, so a server that never activates a tool emits
// frames byte-identical to builds that predate tools.

import "repro/internal/vmath"

// Tool kind bytes, shared by v1 and v2 tool records. They mirror
// env.ToolID.
const (
	ToolKindIso    = 1
	ToolKindPlane  = 2
	ToolKindVortex = 3
)

// toolSectionV1 is the version byte leading the codec-v1 tool section,
// so future section layouts can be detected instead of misparsed.
const toolSectionV1 = 1

// maxToolGeoms bounds the geometry records in a tool section: one per
// tool kind.
const maxToolGeoms = 3

// ToolState is one shared tool's frame-visible state. Axis is only
// meaningful for the cutting plane; Value is the iso level, plane
// fraction, or Q threshold depending on the tool.
type ToolState struct {
	Enabled bool
	Axis    uint8
	Value   float32
	Holder  int64
}

// ToolGeom is the computed geometry of one shared tool: a flat point
// array in physical coordinates. Isosurface and vortex-core points are
// a triangle soup (length divisible by 3); cutting-plane points are
// hedgehog segment pairs (length divisible by 2).
type ToolGeom struct {
	Tool   uint8
	Points []vmath.Vec3
}

// NumPoints returns the geometry's point count.
func (g ToolGeom) NumPoints() int { return len(g.Points) }

// ToolsReply is the frame's tool section: all three tool states plus
// the geometry of every enabled tool, in iso/plane/vortex order.
type ToolsReply struct {
	Iso    ToolState
	Plane  ToolState
	Vortex ToolState
	Geoms  []ToolGeom
}

// TotalPoints returns the point count across all tool geometry.
func (t *ToolsReply) TotalPoints() int {
	var n int
	for _, g := range t.Geoms {
		n += len(g.Points)
	}
	return n
}

// toolState and the decoder mirror are the fixed 14-byte state record
// shared by the v1 and v2 tool sections.
func (e *encoder) toolState(s ToolState) {
	e.bool(s.Enabled)
	e.u8(s.Axis)
	e.f32(s.Value)
	e.i64(s.Holder)
}

func (d *decoder) toolState() ToolState {
	var s ToolState
	s.Enabled = d.bool()
	s.Axis = d.u8()
	s.Value = d.f32()
	s.Holder = d.i64()
	return s
}

// appendToolsReply appends the codec-v1 tool section: a section
// version byte, the three tool states, then each geometry as a tool
// byte, point count, and 12-byte points.
func appendToolsReply(dst []byte, t *ToolsReply) []byte {
	e := encoder{buf: dst}
	e.u8(toolSectionV1)
	e.toolState(t.Iso)
	e.toolState(t.Plane)
	e.toolState(t.Vortex)
	e.u32(uint32(len(t.Geoms)))
	for _, g := range t.Geoms {
		e.u8(g.Tool)
		e.u32(uint32(len(g.Points)))
		e.buf = EncodePoints(e.buf, g.Points)
	}
	return e.buf
}

// decodeToolsReply parses the codec-v1 tool section that is the rest of
// d's frame — trailing bytes are an error — counting its points against
// the caller's remaining point budget. Errors land in d.err.
func decodeToolsReply(d *decoder, budget int) ToolsReply {
	if v := d.u8(); v != toolSectionV1 {
		d.errf("tool section version %d, want %d", v, toolSectionV1)
	}
	var t ToolsReply
	t.Iso = d.toolState()
	t.Plane = d.toolState()
	t.Vortex = d.toolState()
	nGeoms := d.countSized(maxToolGeoms, 5) // tool + point count minimum
	if d.err != nil {
		return ToolsReply{}
	}
	t.Geoms = make([]ToolGeom, nGeoms)
	var total int
	for i := range t.Geoms {
		g := &t.Geoms[i]
		g.Tool = d.u8()
		nPts := d.countSized(maxPoints, PointBytes)
		if d.err != nil {
			return ToolsReply{}
		}
		total += nPts
		if total > budget {
			d.errf("too many tool points")
			return ToolsReply{}
		}
		g.Points = d.points(nPts)
	}
	if len(d.buf) != 0 {
		d.errf("%d trailing bytes in tool section", len(d.buf))
	}
	return t
}
