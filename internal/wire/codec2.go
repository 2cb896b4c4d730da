package wire

// Codec v2 ("Wire 2.0") attacks Table 1's bandwidth wall at the
// encoder. Three mechanisms stack:
//
//   - Quantized points: path points ship as three 16-bit fixed-point
//     offsets against the dataset's grid bounding box — 6 bytes/point
//     instead of the paper's 12, with a worst-case round-trip error of
//     half a quantization step per axis (extent/131070, far below half
//     a grid cell for any realistic grid).
//   - Delta frames: each rake's geometry carries a sequence number
//     that changes exactly when its content changes. A per-session
//     encoder remembers which (rake, seq) the peer already holds and
//     replaces unchanged geometry with a tiny reference record; the
//     per-session decoder reassembles full frames from its shadow. A
//     fresh session (or a reconnect, which is a fresh session) starts
//     with an empty shadow, so the first frame is a full keyframe by
//     construction. User and rake state records delta the same way,
//     by content: an entity whose state equals the session shadow
//     ships as id + one flag byte — with a fleet of workstations the
//     user list is most of a steady frame's bytes.
//   - Varint counts: line and point counts — dominated by streakline
//     histories whose per-seed lengths vary frame to frame — use
//     unsigned varints instead of fixed u32s.
//
// The codec is negotiated per session at hello (ProcHello2); v1
// sessions keep receiving the original encoding byte for byte.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/vmath"
)

// Codec version numbers, negotiated at hello.
const (
	// CodecV1 is the original fixed-width encoding (12 bytes/point).
	CodecV1 = 1
	// CodecV2 adds delta frames, quantized points, and varint counts.
	CodecV2 = 2
	// MaxCodec is the newest codec this build speaks.
	MaxCodec = CodecV2
)

// ProcHello2 is the dlib procedure every session opens with: payload
// is a 1-byte requested codec (a v1 workstation asks for CodecV1),
// reply is the accepted codec followed by DatasetInfo.
const ProcHello2 = "vw.hello2"

// QuantBytes is codec v2's wire cost per path point: three uint16s.
const QuantBytes = 6

// quantSteps is the number of quantization intervals per axis.
const quantSteps = 65535

// Directory record kinds, shared by the user, rake, and geometry
// sections: a reference means "unchanged since I last inlined it to
// you", an inline record carries the full payload.
const (
	geomRef    = 0 // peer already holds this entry; no payload
	geomInline = 1 // full payload follows
)

// EncodeHelloRequest marshals the client's highest supported codec.
func EncodeHelloRequest(codec uint8) []byte { return []byte{codec} }

// DecodeHelloRequest unmarshals a hello request; an empty payload
// means codec v1.
func DecodeHelloRequest(buf []byte) (uint8, error) {
	if len(buf) == 0 {
		return CodecV1, nil
	}
	return buf[0], nil
}

// EncodeHelloReply marshals the accepted codec and the dataset info.
func EncodeHelloReply(codec uint8, info DatasetInfo) []byte {
	return append([]byte{codec}, encodeDatasetInfo(info)...)
}

// DecodeHelloReply unmarshals a hello reply.
func DecodeHelloReply(buf []byte) (uint8, DatasetInfo, error) {
	if len(buf) < 1 {
		return 0, DatasetInfo{}, fmt.Errorf("wire: empty hello reply")
	}
	info, err := decodeDatasetInfo(buf[1:])
	return buf[0], info, err
}

// NegotiateCodec returns the codec a server speaking up to max accepts
// for a client requesting req. Unknown (future) client versions settle
// on the server's max; anything at or below v1 settles on v1.
func NegotiateCodec(req, max uint8) uint8 {
	if max < CodecV1 || max > MaxCodec {
		max = MaxCodec
	}
	if req > max {
		return max
	}
	if req < CodecV1 {
		return CodecV1
	}
	return req
}

// --- quantization ----------------------------------------------------

// Quantizer maps physical coordinates to 16-bit fixed point against an
// axis-aligned bounding box — the dataset grid's physical bounds, which
// both ends learn at hello. Points outside the box clamp to its faces;
// a degenerate (flat) axis quantizes to 0 and dequantizes to the axis
// minimum, exactly.
type Quantizer struct {
	Min, Max vmath.Vec3
}

// Quantizer returns the quantizer both ends derive from the dataset
// bounds exchanged at hello.
func (i DatasetInfo) Quantizer() Quantizer {
	return Quantizer{Min: i.BoundsMin, Max: i.BoundsMax}
}

// axis is one coordinate of a Quantizer resolved for arithmetic: the
// box minimum and extent in float64, built once per call rather than
// once per coordinate. It is the only definition of either direction.
type axis struct{ lo, span float64 }

// axes resolves the box. Three values, not an array: the point loops
// keep them in registers.
func (q Quantizer) axes() (x, y, z axis) {
	return axis{float64(q.Min.X), float64(q.Max.X) - float64(q.Min.X)},
		axis{float64(q.Min.Y), float64(q.Max.Y) - float64(q.Min.Y)},
		axis{float64(q.Min.Z), float64(q.Max.Z) - float64(q.Min.Z)}
}

// quant maps v into [0, quantSteps]. The arithmetic runs in float64 so
// the round-trip error stays within half a quantization step. The lower
// clamp is written !(t > 0) so a NaN coordinate quantizes to 0 on every
// platform; a flat or inverted axis quantizes to 0.
func (a axis) quant(v float32) uint16 {
	t := (float64(v) - a.lo) / a.span
	if !(t > 0) || a.span <= 0 {
		return 0
	}
	if t >= 1 {
		return quantSteps
	}
	return roundSteps(t * quantSteps)
}

// roundSteps rounds y, 0 <= y < quantSteps+0.5, half away from zero: the
// math package's Round without the call, which is pure Go on amd64.
// From 0.5 up the sum y+0.5 is exact unless it crosses into the next
// binade, where no integer lies within the half-ulp it can gain, so
// truncating it rounds as Round does; below 0.5 the sum can round up
// to 1, hence the guard.
func roundSteps(y float64) uint16 {
	if y < 0.5 {
		return 0
	}
	return uint16(y + 0.5)
}

// unitTable holds float64(q)/quantSteps for every q: the divide of the
// inverse map is a function of a 16-bit integer. Only a decoding
// process builds it (512 KB); a server or a skimming relay never does.
var (
	unitOnce  sync.Once
	unitTable [quantSteps + 1]float64
)

// units returns the built table; callers fetch it once per call, not
// per coordinate.
func units() *[quantSteps + 1]float64 {
	unitOnce.Do(func() {
		for q := range unitTable {
			unitTable[q] = float64(q) / quantSteps
		}
	})
	return &unitTable
}

// dequant is the inverse map onto the box; a flat or inverted axis
// returns its minimum exactly.
func (a axis) dequant(unit *[quantSteps + 1]float64, q uint16) float32 {
	if a.span <= 0 {
		return float32(a.lo)
	}
	return float32(a.lo + unit[q]*a.span)
}

// quant maps a physical point to its quantized triple.
func (q Quantizer) quant(p vmath.Vec3) (x, y, z uint16) {
	ax, ay, az := q.axes()
	return ax.quant(p.X), ay.quant(p.Y), az.quant(p.Z)
}

// dequant maps a quantized triple back to physical coordinates.
func (q Quantizer) dequant(x, y, z uint16) vmath.Vec3 {
	ax, ay, az := q.axes()
	unit := units()
	return vmath.Vec3{X: ax.dequant(unit, x), Y: ay.dequant(unit, y), Z: az.dequant(unit, z)}
}

// RoundTrip returns dequant(quant(p)) — what the peer will see for p.
//
//vw:testonly
func (q Quantizer) RoundTrip(p vmath.Vec3) vmath.Vec3 {
	return q.dequant(q.quant(p))
}

// MaxError returns the per-axis worst-case round-trip error for points
// inside the box: half a quantization step, extent/131070. Tests pin
// this against half a grid cell.
func (q Quantizer) MaxError() vmath.Vec3 {
	ax, ay, az := q.axes()
	return vmath.Vec3{
		X: float32(ax.span / (2 * quantSteps)),
		Y: float32(ay.span / (2 * quantSteps)),
		Z: float32(az.span / (2 * quantSteps)),
	}
}

// --- varint helpers --------------------------------------------------

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// uvarint reads one unsigned varint, failing on truncation and on
// overlong/overflowing encodings.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("wire: bad varint (n=%d)", n)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// uvarintCount reads a varint element count for elements of at least
// elemBytes each and requires the remaining buffer to be large enough
// to hold them, so a hostile count cannot size an allocation the
// message does not back.
func (d *decoder) uvarintCount(max, elemBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) {
		d.err = fmt.Errorf("wire: count %d exceeds limit %d", v, max)
		return 0
	}
	n := int(v)
	if n*elemBytes > len(d.buf) {
		d.err = fmt.Errorf("wire: count %d x %d bytes exceeds remaining %d",
			n, elemBytes, len(d.buf))
		return 0
	}
	return n
}

// --- geometry segments -----------------------------------------------

// Segment is one geometry source's row in a codec-v2 frame or a relay
// directory: a rake's polylines or a shared tool's point soup, encoded
// once per content version and shipped inline or by reference.
type Segment struct {
	// Key names the source in a relay directory: the rake id, or -kind
	// for a shared tool (rake ids are >= 1, so the two never collide).
	// AppendFrame ignores it and keys each entry from the frame itself.
	Key int32
	// Seq changes exactly when the source's content changes; a peer
	// that holds (source, Seq) can be sent a reference. Zero disables
	// delta tracking for the entry, which then always ships inline.
	Seq uint64
	// Bytes is the encoded segment (AppendGeomV2 / AppendToolGeomV2);
	// AppendFrame needs it on every row. Nil means "reference" in a
	// relay directory.
	Bytes []byte
}

// quantPoints appends a varint point count and 6 quantized bytes per
// point — the payload shared by rake lines and tool geometry.
func (e *encoder) quantPoints(pts []vmath.Vec3, q Quantizer) {
	first := e.quantRecords(len(pts))
	PutQuantPoints(e.buf[first:], pts, q)
}

// quantRecords appends a varint point count and room for that many
// 6-byte records, and returns the offset of the first.
func (e *encoder) quantRecords(n int) (first int) {
	e.uvarint(uint64(n))
	first = len(e.buf)
	e.buf = slices.Grow(e.buf, n*QuantBytes)[:first+n*QuantBytes]
	return first
}

// PutQuantPoints writes the 6-byte quantized record of every point into
// dst, which holds at least QuantBytes per point. Disjoint ranges of one
// segment's records (BeginToolGeomV2) may be written concurrently.
//
//vw:hotpath
func PutQuantPoints(dst []byte, pts []vmath.Vec3, q Quantizer) {
	ax, ay, az := q.axes()
	for i, p := range pts {
		rec := dst[i*QuantBytes : (i+1)*QuantBytes]
		binary.LittleEndian.PutUint16(rec[0:], ax.quant(p.X))
		binary.LittleEndian.PutUint16(rec[2:], ay.quant(p.Y))
		binary.LittleEndian.PutUint16(rec[4:], az.quant(p.Z))
	}
}

// quantPoints is the inverse of the encoder's, refusing counts beyond
// the caller's remaining point budget.
func (d *decoder) quantPoints(q Quantizer, budget int) []vmath.Vec3 {
	n := d.uvarintCount(maxPoints, QuantBytes)
	if d.err == nil && n > budget {
		d.errf("too many total points")
	}
	b := d.take(n * QuantBytes)
	if d.err != nil {
		return nil
	}
	pts := make([]vmath.Vec3, n)
	ax, ay, az := q.axes()
	unit := units()
	for p := range pts {
		rec := b[p*QuantBytes:][:QuantBytes]
		pts[p] = vmath.Vec3{
			X: ax.dequant(unit, binary.LittleEndian.Uint16(rec[0:])),
			Y: ay.dequant(unit, binary.LittleEndian.Uint16(rec[2:])),
			Z: az.dequant(unit, binary.LittleEndian.Uint16(rec[4:])),
		}
	}
	return pts
}

// AppendGeomV2 appends one rake's geometry as a codec-v2 segment:
// tool byte, varint line count, then per line a varint point count and
// 6 quantized bytes per point. The rake id lives in the enclosing
// frame's directory, not the segment.
func AppendGeomV2(dst []byte, g Geometry, q Quantizer) []byte {
	e := encoder{buf: dst}
	e.u8(g.Tool)
	e.uvarint(uint64(len(g.Lines)))
	for _, line := range g.Lines {
		e.quantPoints(line, q)
	}
	return e.buf
}

// decodeGeomV2 parses one segment for rake into a Geometry, counting
// decoded points against the caller's remaining point budget.
func decodeGeomV2(buf []byte, rake int32, q Quantizer, budget int) (Geometry, int, error) {
	d := decoder{buf: buf}
	g := Geometry{Rake: rake, Tool: d.u8()}
	nLines := d.uvarintCount(maxEntities, 1)
	if d.err != nil {
		return Geometry{}, 0, d.err
	}
	g.Lines = make([][]vmath.Vec3, nLines)
	var total int
	for l := range g.Lines {
		g.Lines[l] = d.quantPoints(q, budget-total)
		if d.err != nil {
			return Geometry{}, 0, d.err
		}
		total += len(g.Lines[l])
	}
	if len(d.buf) != 0 {
		return Geometry{}, 0, fmt.Errorf("wire: %d trailing bytes in geometry segment", len(d.buf))
	}
	return g, total, nil
}

// AppendToolGeomV2 appends one shared tool's geometry as a codec-v2
// segment: tool byte, varint point count, 6 quantized bytes per point.
func AppendToolGeomV2(dst []byte, g ToolGeom, q Quantizer) []byte {
	seg, first := BeginToolGeomV2(dst, g.Tool, len(g.Points))
	PutQuantPoints(seg[first:], g.Points, q)
	return seg
}

// BeginToolGeomV2 is AppendToolGeomV2 for a producer that writes the
// points piecewise: it appends the segment for a tool geometry of n
// points with the point records left unwritten, and returns it with the
// offset of the first record. The segment is complete once
// PutQuantPoints has filled in every record, in any order.
func BeginToolGeomV2(dst []byte, tool uint8, n int) (seg []byte, first int) {
	e := encoder{buf: dst}
	e.u8(tool)
	first = e.quantRecords(n)
	return e.buf, first
}

// decodeToolGeomV2 parses one tool segment, counting decoded points
// against the caller's remaining point budget.
func decodeToolGeomV2(buf []byte, q Quantizer, budget int) (ToolGeom, int, error) {
	d := decoder{buf: buf}
	g := ToolGeom{Tool: d.u8()}
	g.Points = d.quantPoints(q, budget)
	if d.err != nil {
		return ToolGeom{}, 0, d.err
	}
	if len(d.buf) != 0 {
		return ToolGeom{}, 0, fmt.Errorf("wire: %d trailing bytes in tool segment", len(d.buf))
	}
	return g, len(g.Points), nil
}

// --- session shadows -------------------------------------------------

// Geometry shadow keys. One map per encoder (and per decoder) shadows
// both directory sections, so the key carries the section: rake ids
// map onto [0, 2^32) and tool kinds onto the negatives. A decoder must
// accept any int32 rake id off the wire; tagging by section rather
// than by value is what keeps a hostile rake entry from ever
// satisfying a tool reference.
func rakeKey(id int32) int64   { return int64(uint32(id)) }
func toolKey(kind uint8) int64 { return ^int64(kind) }

func isRakeKey(k int64) bool { return k >= 0 }
func isToolKey(k int64) bool { return k < 0 }
func anyKey[K any](K) bool   { return true }

func userKey(u *UserState) int64      { return u.ID }
func rakeStateKey(r *RakeState) int32 { return r.ID }
func geomKey(g *Geometry) int64       { return rakeKey(g.Rake) }
func toolGeomKey(g *ToolGeom) int64   { return toolKey(g.Tool) }

// pruneShadow drops the shadow entries of one section (the keys owns
// accepts) that name nothing in the frame's items. Encoder and decoder
// prune by this one rule, section by section, so a departed-then-
// returned user, rake, or tool cannot be wrongly referenced. A section
// holding no more entries than the frame lists is left alone: on the
// server's streams, where every listed entry is shadowed, it then
// holds exactly the frame's keys. Counts are small; the linear
// membership scan beats allocating a set.
func pruneShadow[K comparable, V, T any](shadow map[K]V, items []T, key func(*T) K, owns func(K) bool) {
	if len(shadow) <= len(items) {
		return // the whole map is that small: no need to count the section
	}
	held := 0
	for k := range shadow {
		if owns(k) {
			held++
		}
	}
	if held <= len(items) {
		return
	}
	for k := range shadow {
		found := !owns(k)
		for i := 0; i < len(items) && !found; i++ {
			found = key(&items[i]) == k
		}
		if !found {
			delete(shadow, k)
		}
	}
}

// --- frame encoder ---------------------------------------------------

// FrameEncoder encodes codec-v2 frames for one session. It shadows
// which (source, sequence) pairs the peer holds — every rake and tool
// geometry it has inlined since the last Reset — and replaces unchanged
// ones with reference records. One encoder must serve exactly one
// ordered frame stream; a reconnecting peer gets a fresh encoder
// (server sessions die with their connection), which forces a full
// keyframe.
type FrameEncoder struct {
	// LastInline and LastRef report the directory composition (rake and
	// tool entries alike) of the most recent AppendFrame, for stats.
	LastInline, LastRef int

	shadow map[int64]uint64
	users  map[int64]UserState
	rakes  map[int32]RakeState
}

// NewFrameEncoder returns an encoder with an empty shadow.
func NewFrameEncoder() *FrameEncoder {
	return &FrameEncoder{
		shadow: make(map[int64]uint64),
		users:  make(map[int64]UserState),
		rakes:  make(map[int32]RakeState),
	}
}

// Reset forgets the peer's shadow; the next frame is a full keyframe.
func (e *FrameEncoder) Reset() {
	clear(e.shadow)
	clear(e.users)
	clear(e.rakes)
}

// AppendFrame appends the codec-v2 encoding of r for this session.
// segs is aligned with r.Geometry followed by r.Tools.Geoms (when the
// frame carries a tool section), one row per source with its encoded
// segment — the server's encode-once segment cache, or the rows a relay
// holds. The encoder only picks between a row's bytes and a reference,
// so r's lines and tool points are never read.
func (e *FrameEncoder) AppendFrame(dst []byte, r FrameReply, segs []Segment) []byte {
	e.LastInline, e.LastRef = 0, 0
	enc := encoder{buf: dst}
	enc.u8(CodecV2)
	enc.f32(r.Time.Current)
	enc.f32(r.Time.Speed)
	enc.bool(r.Time.Playing)
	enc.bool(r.Time.Loop)
	enc.u32(r.Time.NumSteps)
	enc.i64(r.ComputeNanos)
	enc.i64(r.LoadNanos)
	enc.u64(r.Round)
	enc.u8(r.Degraded)

	enc.uvarint(uint64(len(r.Users)))
	for _, u := range r.Users {
		enc.i64(u.ID)
		if prev, ok := e.users[u.ID]; ok && prev == u {
			enc.u8(geomRef)
			continue
		}
		enc.u8(geomInline)
		enc.mat4(u.Head)
		enc.vec3(u.Hand)
		enc.u8(u.Gesture)
		e.users[u.ID] = u
	}
	pruneShadow(e.users, r.Users, userKey, anyKey[int64])
	enc.uvarint(uint64(len(r.Rakes)))
	for _, rk := range r.Rakes {
		enc.i32(rk.ID)
		if prev, ok := e.rakes[rk.ID]; ok && prev == rk {
			enc.u8(geomRef)
			continue
		}
		enc.u8(geomInline)
		enc.vec3(rk.P0)
		enc.vec3(rk.P1)
		enc.u32(rk.NumSeeds)
		enc.u8(rk.Tool)
		enc.i64(rk.Holder)
		enc.u8(rk.Grab)
		e.rakes[rk.ID] = rk
	}
	pruneShadow(e.rakes, r.Rakes, rakeStateKey, anyKey[int32])

	// Each section writes its own key encoding (varint rake id, one-byte
	// tool kind); the record after the key is shared.
	enc.uvarint(uint64(len(r.Geometry)))
	for i := range r.Geometry {
		g := &r.Geometry[i]
		enc.uvarint(uint64(uint32(g.Rake)))
		if s := segs[i]; e.entry(&enc, rakeKey(g.Rake), s.Seq) {
			enc.segment(s.Bytes)
		}
	}
	pruneShadow(e.shadow, r.Geometry, geomKey, isRakeKey)

	// Optional trailing tool section, mirroring codec v1: presence is
	// "bytes remain after the geometry directory". Tool states are
	// small and always inline; tool geometry deltas exactly like rake
	// geometry. A frame without the section leaves the tool shadow be.
	if r.Tools != nil {
		enc.toolState(r.Tools.Iso)
		enc.toolState(r.Tools.Plane)
		enc.toolState(r.Tools.Vortex)
		enc.uvarint(uint64(len(r.Tools.Geoms)))
		for i := range r.Tools.Geoms {
			g := &r.Tools.Geoms[i]
			enc.u8(g.Tool)
			if s := segs[len(r.Geometry)+i]; e.entry(&enc, toolKey(g.Tool), s.Seq) {
				enc.segment(s.Bytes)
			}
		}
		pruneShadow(e.shadow, r.Tools.Geoms, toolGeomKey, isToolKey)
	}
	return enc.buf
}

// entry writes the directory record that follows an entry's key — a
// reference when the peer's shadow holds (key, seq), otherwise an
// inline header — updates the shadow, and reports whether the caller
// must append the segment.
func (e *FrameEncoder) entry(enc *encoder, key int64, seq uint64) (inline bool) {
	if seq != 0 && e.shadow[key] == seq {
		enc.u8(geomRef)
		enc.uvarint(seq)
		e.LastRef++
		return false
	}
	enc.u8(geomInline)
	enc.uvarint(seq)
	if seq != 0 {
		e.shadow[key] = seq
	} else {
		delete(e.shadow, key)
	}
	e.LastInline++
	return true
}

// segment appends a length-prefixed encoded segment.
func (e *encoder) segment(seg []byte) {
	e.uvarint(uint64(len(seg)))
	e.buf = append(e.buf, seg...)
}

// --- frame decoder ---------------------------------------------------

// decodedGeom is one shadow entry: the sequence number the geometry
// was inlined under, its point count, and the decoded result — geo for
// a rake-section entry, tool for a tool-section one.
type decodedGeom struct {
	seq    uint64
	points int
	geo    Geometry
	tool   ToolGeom
}

// FrameDecoder reassembles full FrameReply values from one session's
// codec-v2 stream, holding the decoded geometry shadow that reference
// records resolve against. After a decode error the shadow may be
// stale; Reset it (and resync with the peer — in practice, redial) or
// drop the decoder.
type FrameDecoder struct {
	// Q dequantizes points; both ends must build it from the same
	// hello bounds.
	Q Quantizer

	shadow map[int64]decodedGeom
	users  map[int64]UserState
	rakes  map[int32]RakeState
}

// NewFrameDecoder returns a decoder with an empty shadow.
func NewFrameDecoder(q Quantizer) *FrameDecoder {
	return &FrameDecoder{
		Q:      q,
		shadow: make(map[int64]decodedGeom),
		users:  make(map[int64]UserState),
		rakes:  make(map[int32]RakeState),
	}
}

// Decode unmarshals one codec-v2 frame, resolving reference records
// against the shadow and folding inlined segments into it.
func (d *FrameDecoder) Decode(buf []byte) (FrameReply, error) {
	dec := decoder{buf: buf}
	if v := dec.u8(); dec.err == nil && v != CodecV2 {
		return FrameReply{}, fmt.Errorf("wire: frame codec %d, want %d", v, CodecV2)
	}
	var r FrameReply
	r.Time.Current = dec.f32()
	r.Time.Speed = dec.f32()
	r.Time.Playing = dec.bool()
	r.Time.Loop = dec.bool()
	r.Time.NumSteps = dec.u32()
	r.ComputeNanos = dec.i64()
	r.LoadNanos = dec.i64()
	r.Round = dec.u64()
	r.Degraded = dec.u8()

	nUsers := dec.uvarintCount(maxEntities, 9) // id + kind minimum
	if dec.err != nil {
		return FrameReply{}, dec.err
	}
	r.Users = make([]UserState, nUsers)
	for i := range r.Users {
		u := &r.Users[i]
		u.ID = dec.i64()
		switch kind := dec.u8(); {
		case dec.err != nil:
			return FrameReply{}, dec.err
		case kind == geomRef:
			prev, ok := d.users[u.ID]
			if !ok {
				return FrameReply{}, fmt.Errorf("wire: reference to unknown user %d", u.ID)
			}
			*u = prev
		case kind == geomInline:
			u.Head = dec.mat4()
			u.Hand = dec.vec3()
			u.Gesture = dec.u8()
			if dec.err != nil {
				return FrameReply{}, dec.err
			}
			d.users[u.ID] = *u
		default:
			return FrameReply{}, fmt.Errorf("wire: unknown user record kind %d", kind)
		}
	}
	pruneShadow(d.users, r.Users, userKey, anyKey[int64])
	nRakes := dec.uvarintCount(maxEntities, 5) // id + kind minimum
	if dec.err != nil {
		return FrameReply{}, dec.err
	}
	r.Rakes = make([]RakeState, nRakes)
	for i := range r.Rakes {
		rk := &r.Rakes[i]
		rk.ID = dec.i32()
		switch kind := dec.u8(); {
		case dec.err != nil:
			return FrameReply{}, dec.err
		case kind == geomRef:
			prev, ok := d.rakes[rk.ID]
			if !ok {
				return FrameReply{}, fmt.Errorf("wire: reference to unknown rake %d", rk.ID)
			}
			*rk = prev
		case kind == geomInline:
			rk.P0 = dec.vec3()
			rk.P1 = dec.vec3()
			rk.NumSeeds = dec.u32()
			rk.Tool = dec.u8()
			rk.Holder = dec.i64()
			rk.Grab = dec.u8()
			if dec.err != nil {
				return FrameReply{}, dec.err
			}
			d.rakes[rk.ID] = *rk
		default:
			return FrameReply{}, fmt.Errorf("wire: unknown rake record kind %d", kind)
		}
	}
	pruneShadow(d.rakes, r.Rakes, rakeStateKey, anyKey[int32])

	nGeom := dec.uvarintCount(maxEntities, 3) // rake + kind + seq minimum
	if dec.err != nil {
		return FrameReply{}, dec.err
	}
	r.Geometry = make([]Geometry, 0, nGeom)
	budget := maxPoints
	for i := 0; i < nGeom; i++ {
		rake := int32(uint32(dec.uvarint()))
		cg, err := d.entry(&dec, rake, false, budget)
		if err != nil {
			return FrameReply{}, err
		}
		budget -= cg.points
		r.Geometry = append(r.Geometry, cg.geo)
	}
	pruneShadow(d.shadow, r.Geometry, geomKey, isRakeKey)
	if len(dec.buf) != 0 {
		// Bytes after the geometry directory are the optional tool
		// section (mirroring codec v1's presence-by-remaining-bytes).
		var t ToolsReply
		t.Iso = dec.toolState()
		t.Plane = dec.toolState()
		t.Vortex = dec.toolState()
		nGeoms := dec.uvarintCount(maxToolGeoms, 3) // tool + kind + seq minimum
		if dec.err != nil {
			return FrameReply{}, dec.err
		}
		t.Geoms = make([]ToolGeom, 0, nGeoms)
		for i := 0; i < nGeoms; i++ {
			cg, err := d.entry(&dec, int32(dec.u8()), true, budget)
			if err != nil {
				return FrameReply{}, err
			}
			budget -= cg.points
			t.Geoms = append(t.Geoms, cg.tool)
		}
		pruneShadow(d.shadow, t.Geoms, toolGeomKey, isToolKey)
		r.Tools = &t
	}
	if len(dec.buf) != 0 {
		return FrameReply{}, fmt.Errorf("wire: %d trailing bytes in frame", len(dec.buf))
	}
	return r, dec.err
}

// entry reads the directory record that follows an entry's key (id: a
// rake id, or a tool kind in the tool section) and returns the
// geometry it denotes: the shadow's copy for a reference, the decoded
// inline segment — folded into the shadow — otherwise. Either way the
// entry's points must fit the frame's remaining point budget.
func (d *FrameDecoder) entry(dec *decoder, id int32, tools bool, budget int) (decodedGeom, error) {
	key, what, unit := rakeKey(id), "geometry", "rake"
	if tools {
		key, what, unit = toolKey(uint8(id)), "tool geometry", "tool"
	}
	kind := dec.u8()
	seq := dec.uvarint()
	if dec.err != nil {
		return decodedGeom{}, dec.err
	}
	switch kind {
	case geomRef:
		cg, ok := d.shadow[key]
		if !ok || cg.seq != seq {
			return decodedGeom{}, fmt.Errorf("wire: reference to unknown %s (%s %d seq %d)", what, unit, id, seq)
		}
		if cg.points > budget {
			return decodedGeom{}, fmt.Errorf("wire: too many total points")
		}
		return cg, nil
	case geomInline:
		segLen := dec.uvarintCount(len(dec.buf), 1)
		seg := dec.take(segLen)
		if dec.err != nil {
			return decodedGeom{}, dec.err
		}
		cg := decodedGeom{seq: seq}
		var err error
		if tools {
			cg.tool, cg.points, err = decodeToolGeomV2(seg, d.Q, budget)
			if err == nil && cg.tool.Tool != uint8(id) {
				err = fmt.Errorf("wire: tool segment kind %d under directory entry %d", cg.tool.Tool, id)
			}
		} else {
			cg.geo, cg.points, err = decodeGeomV2(seg, id, d.Q, budget)
		}
		if err != nil {
			return decodedGeom{}, err
		}
		if seq != 0 {
			d.shadow[key] = cg
		} else {
			delete(d.shadow, key)
		}
		return cg, nil
	default:
		return decodedGeom{}, fmt.Errorf("wire: unknown %s record kind %d", what, kind)
	}
}
