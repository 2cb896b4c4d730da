package wire

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/vmath"
)

// hostLittleEndian reports whether this machine lays a float32 out in
// memory the way the wire does, so a point array and its encoding are
// the same bytes. A big-endian host takes the per-value path.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// A Vec3 is three float32s and no padding: the paper's 12-byte point.
var _ [PointBytes]byte = [unsafe.Sizeof(vmath.Vec3{})]byte{}

// pointMemory is pts's memory as bytes: on a little-endian host,
// exactly its wire encoding.
func pointMemory(pts []vmath.Vec3) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(pts))), PointBytes*len(pts))
}

// encodePoints appends pts at 12 bytes/point to dst and returns the
// extended slice: on a little-endian host the slice's own memory in
// one append, elsewhere a value at a time.
func encodePoints(dst []byte, pts []vmath.Vec3) []byte {
	if hostLittleEndian {
		return append(dst, pointMemory(pts)...)
	}
	return encodePointsPortable(dst, pts)
}

// encodePointsPortable is encodePoints for a host of any byte order.
func encodePointsPortable(dst []byte, pts []vmath.Vec3) []byte {
	e := encoder{buf: dst}
	for _, p := range pts {
		e.vec3(p)
	}
	return e.buf
}

// readPoints fills pts from the PointBytes*len(pts) bytes of b — one
// copy on a little-endian host. Every bit pattern is a point, so it
// cannot fail.
func readPoints(pts []vmath.Vec3, b []byte) {
	if hostLittleEndian {
		copy(pointMemory(pts), b[:PointBytes*len(pts)])
		return
	}
	readPointsPortable(pts, b)
}

// readPointsPortable is readPoints for a host of any byte order.
func readPointsPortable(pts []vmath.Vec3, b []byte) {
	d := decoder{buf: b}
	for i := range pts {
		pts[i] = d.vec3()
	}
}

// EncodeClientUpdate marshals a ClientUpdate.
func EncodeClientUpdate(u ClientUpdate) []byte {
	var e encoder
	e.mat4(u.Head)
	e.vec3(u.Hand)
	e.u8(u.Gesture)
	e.u32(uint32(len(u.Commands)))
	for _, c := range u.Commands {
		e.u8(uint8(c.Kind))
		e.i32(c.Rake)
		e.u8(c.Grab)
		e.u8(c.Tool)
		e.u32(c.NumSeeds)
		e.u8(c.Flag)
		e.f32(c.Value)
		e.vec3(c.P0)
		e.vec3(c.P1)
		e.vec3(c.Pos)
	}
	return e.buf
}

// DecodeClientUpdate unmarshals a ClientUpdate.
func DecodeClientUpdate(buf []byte) (ClientUpdate, error) {
	d := decoder{buf: buf}
	var u ClientUpdate
	u.Head = d.mat4()
	u.Hand = d.vec3()
	u.Gesture = d.u8()
	const commandBytes = 52
	n := d.countSized(maxCommands, commandBytes)
	if d.err != nil {
		return ClientUpdate{}, d.err
	}
	u.Commands = make([]Command, n)
	for i := range u.Commands {
		c := &u.Commands[i]
		c.Kind = CmdKind(d.u8())
		c.Rake = d.i32()
		c.Grab = d.u8()
		c.Tool = d.u8()
		c.NumSeeds = d.u32()
		c.Flag = d.u8()
		c.Value = d.f32()
		c.P0 = d.vec3()
		c.P1 = d.vec3()
		c.Pos = d.vec3()
	}
	return u, d.err
}

// EncodeFrameReply marshals a FrameReply into a fresh buffer.
//
//vw:testonly
func EncodeFrameReply(r FrameReply) []byte {
	return AppendFrameReply(make([]byte, 0, 256+r.TotalPoints()*PointBytes), r)
}

// AppendFrameReply marshals a FrameReply, appending to dst, and
// returns the extended slice. Servers encoding every frame pass a
// recycled dst[:0] so steady-state frames reuse one buffer instead of
// allocating TotalPoints*12 bytes per round.
func AppendFrameReply(dst []byte, r FrameReply) []byte {
	e := encoder{buf: dst}
	e.f32(r.Time.Current)
	e.f32(r.Time.Speed)
	e.bool(r.Time.Playing)
	e.bool(r.Time.Loop)
	e.u32(r.Time.NumSteps)
	e.i64(r.ComputeNanos)
	e.i64(r.LoadNanos)
	e.u64(r.Round)
	e.u8(r.Degraded)

	e.u32(uint32(len(r.Users)))
	for _, u := range r.Users {
		e.i64(u.ID)
		e.mat4(u.Head)
		e.vec3(u.Hand)
		e.u8(u.Gesture)
	}
	e.u32(uint32(len(r.Rakes)))
	for _, rk := range r.Rakes {
		e.i32(rk.ID)
		e.vec3(rk.P0)
		e.vec3(rk.P1)
		e.u32(rk.NumSeeds)
		e.u8(rk.Tool)
		e.i64(rk.Holder)
		e.u8(rk.Grab)
	}
	e.u32(uint32(len(r.Geometry)))
	for _, g := range r.Geometry {
		e.i32(g.Rake)
		e.u8(g.Tool)
		e.u32(uint32(len(g.Lines)))
		for _, line := range g.Lines {
			e.u32(uint32(len(line)))
			e.buf = encodePoints(e.buf, line)
		}
	}
	// The shared-tool section is optional and trailing: v1 decoders
	// have always stopped after the geometry section, so its presence
	// is simply "bytes remain".
	if r.Tools != nil {
		e.buf = appendToolsReply(e.buf, r.Tools)
	}
	return e.buf
}

// DecodeFrameReply unmarshals a FrameReply. Its lines (and tool points)
// are cut from one array no larger than the message.
func DecodeFrameReply(buf []byte) (FrameReply, error) {
	return decodeFrameReply(buf, false)
}

// SkimFrameReply is DecodeFrameReply for a reader that forwards the
// frame's bytes and needs only what they say about the round — a relay
// hop, a load harness. It makes every check the full decode makes and
// errs on exactly the inputs the full decode errs on (a point's 12
// bytes have no invalid encoding), but steps over the points: each
// Geometry comes back as {Rake, Tool} with nil Lines, each ToolGeom as
// {Tool} with nil Points.
func SkimFrameReply(buf []byte) (FrameReply, error) {
	return decodeFrameReply(buf, true)
}

// decodeFrameReply is the one walk over a codec-v1 frame.
func decodeFrameReply(buf []byte, skim bool) (FrameReply, error) {
	d := decoder{buf: buf, skim: skim}
	var r FrameReply
	r.Time.Current = d.f32()
	r.Time.Speed = d.f32()
	r.Time.Playing = d.bool()
	r.Time.Loop = d.bool()
	r.Time.NumSteps = d.u32()
	r.ComputeNanos = d.i64()
	r.LoadNanos = d.i64()
	r.Round = d.u64()
	r.Degraded = d.u8()

	const userBytes = 85
	nUsers := d.countSized(maxEntities, userBytes)
	if d.err != nil {
		return FrameReply{}, d.err
	}
	r.Users = make([]UserState, nUsers)
	for i := range r.Users {
		u := &r.Users[i]
		u.ID = d.i64()
		u.Head = d.mat4()
		u.Hand = d.vec3()
		u.Gesture = d.u8()
	}
	const rakeBytes = 42
	nRakes := d.countSized(maxEntities, rakeBytes)
	if d.err != nil {
		return FrameReply{}, d.err
	}
	r.Rakes = make([]RakeState, nRakes)
	for i := range r.Rakes {
		rk := &r.Rakes[i]
		rk.ID = d.i32()
		rk.P0 = d.vec3()
		rk.P1 = d.vec3()
		rk.NumSeeds = d.u32()
		rk.Tool = d.u8()
		rk.Holder = d.i64()
		rk.Grab = d.u8()
	}
	nGeom := d.countSized(maxEntities, 9) // id + tool + line count minimum
	if d.err != nil {
		return FrameReply{}, d.err
	}
	r.Geometry = make([]Geometry, nGeom)
	var totalPoints int
	for i := range r.Geometry {
		g := &r.Geometry[i]
		g.Rake = d.i32()
		g.Tool = d.u8()
		nLines := d.countSized(maxEntities, 4)
		if d.err != nil {
			return FrameReply{}, d.err
		}
		if !skim {
			g.Lines = make([][]vmath.Vec3, nLines)
		}
		for l := 0; l < nLines; l++ {
			nPts := d.countSized(maxPoints, PointBytes)
			if d.err != nil {
				return FrameReply{}, d.err
			}
			totalPoints += nPts
			if totalPoints > maxPoints {
				return FrameReply{}, d.errf("too many total points")
			}
			if line := d.points(nPts); !skim {
				g.Lines[l] = line
			}
		}
	}
	if d.err == nil && len(d.buf) > 0 {
		t := decodeToolsReply(&d, maxPoints-totalPoints)
		r.Tools = &t
	}
	if d.err != nil {
		return FrameReply{}, d.err
	}
	return r, nil
}

// EncodeDatasetInfo marshals a DatasetInfo.
func EncodeDatasetInfo(i DatasetInfo) []byte {
	var e encoder
	e.u32(i.NI)
	e.u32(i.NJ)
	e.u32(i.NK)
	e.u32(i.NumSteps)
	e.f32(i.DT)
	e.vec3(i.BoundsMin)
	e.vec3(i.BoundsMax)
	return e.buf
}

// DecodeDatasetInfo unmarshals a DatasetInfo.
func DecodeDatasetInfo(buf []byte) (DatasetInfo, error) {
	d := decoder{buf: buf}
	var i DatasetInfo
	i.NI = d.u32()
	i.NJ = d.u32()
	i.NK = d.u32()
	i.NumSteps = d.u32()
	i.DT = d.f32()
	i.BoundsMin = d.vec3()
	i.BoundsMax = d.vec3()
	return i, d.err
}
