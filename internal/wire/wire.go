// Package wire defines the windtunnel protocol spoken over dlib
// between workstations and the remote host (§5.1): upstream, the user
// commands that affect the virtual environment (head pose, hand pose
// and gestures, rake operations, time control); downstream, the
// environment state and the computed visualization geometry as "arrays
// of floating point vectors in three dimensions" at 12 bytes per
// point — the encoding whose bandwidth requirements Table 1 tabulates.
//
//vw:deterministic
//vw:wire
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vmath"
)

// PointBytes is the paper's wire cost per path point: three float32s.
const PointBytes = 12

// ProcFrame is the dlib procedure name of the once-per-frame exchange:
// payload ClientUpdate, reply FrameReply.
const ProcFrame = "vw.frame"

// ProcWhoAmI is the dlib procedure returning the caller's session id
// as 8 little-endian bytes, so a workstation can filter its own
// presence glyph out of the shared user list.
const ProcWhoAmI = "vw.whoami"

// CmdKind enumerates user commands.
type CmdKind uint8

const (
	// CmdAddRake creates a rake (P0, P1, NumSeeds, Tool).
	CmdAddRake CmdKind = iota + 1
	// CmdRemoveRake deletes rake Rake.
	CmdRemoveRake
	// CmdGrab grabs rake Rake at grab point Grab.
	CmdGrab
	// CmdRelease releases rake Rake.
	CmdRelease
	// CmdMove moves the grabbed point of rake Rake to Pos.
	CmdMove
	// CmdSetSeeds sets rake Rake's seed count to NumSeeds.
	CmdSetSeeds
	// CmdSetPlaying starts (Flag=1) or stops playback.
	CmdSetPlaying
	// CmdSetSpeed sets playback speed to Value timesteps/frame.
	CmdSetSpeed
	// CmdSeek jumps playback to time Value.
	CmdSeek
	// CmdSetLoop sets wrap-at-ends to Flag.
	CmdSetLoop
	// CmdSetTool changes rake Rake's visualization tool to Tool.
	CmdSetTool
	// CmdSteerGrab grabs the live-steering lock (FCFS, like rakes).
	CmdSteerGrab
	// CmdSteerRelease releases the live-steering lock.
	CmdSteerRelease
	// CmdSteer sets all three steering parameters atomically:
	// P0 = (inlet velocity, Reynolds number, cylinder taper ratio).
	// One command carries the whole triple so a change can never be
	// half-applied, no matter where a connection dies.
	CmdSteer
	// CmdIsoGrab grabs the shared isosurface tool's lock (FCFS).
	CmdIsoGrab
	// CmdIsoSet sets the isosurface tool atomically: Flag = enabled,
	// Value = the speed level extracted. A free lock is implicitly
	// grabbed for the call.
	CmdIsoSet
	// CmdIsoRelease releases the isosurface lock.
	CmdIsoRelease
	// CmdPlaneGrab grabs the shared cutting-plane tool's lock (FCFS).
	CmdPlaneGrab
	// CmdPlaneMove moves the cutting plane atomically: Flag = enabled,
	// Grab = the computational axis cut across (0=i, 1=j, 2=k), Value =
	// the fractional position along that axis in [0,1]. A free lock is
	// implicitly grabbed for the call.
	CmdPlaneMove
	// CmdPlaneRelease releases the cutting-plane lock.
	CmdPlaneRelease
	// CmdVortexToggle sets the vortex-core extractor atomically: Flag =
	// enabled, Value = the Q-criterion threshold. There is no separate
	// grab/release pair — toggles are one-shot — but the server still
	// enforces the FCFS lock via implicit grab-for-call.
	CmdVortexToggle
)

// Command is one user command. Unused fields are zero.
type Command struct {
	Kind     CmdKind
	Rake     int32
	Grab     uint8
	Tool     uint8
	NumSeeds uint32
	Flag     uint8
	Value    float32
	P0, P1   vmath.Vec3
	Pos      vmath.Vec3
}

// ClientUpdate is the once-per-frame upstream message.
type ClientUpdate struct {
	Head     vmath.Mat4
	Hand     vmath.Vec3
	Gesture  uint8
	Commands []Command
}

// RakeState mirrors env.RakeSnapshot on the wire.
type RakeState struct {
	ID       int32
	P0, P1   vmath.Vec3
	NumSeeds uint32
	Tool     uint8
	Holder   int64
	Grab     uint8
}

// UserState is another participant's pose.
type UserState struct {
	ID      int64
	Head    vmath.Mat4
	Hand    vmath.Vec3
	Gesture uint8
}

// Geometry is the computed visualization for one rake: a set of
// polylines (streamlines/paths) or per-seed smoke filaments
// (streaklines), all in physical coordinates.
type Geometry struct {
	Rake  int32
	Tool  uint8
	Lines [][]vmath.Vec3
}

// NumPoints returns the total point count across lines.
func (g Geometry) NumPoints() int {
	var n int
	for _, l := range g.Lines {
		n += len(l)
	}
	return n
}

// TimeStatus mirrors env.TimeState on the wire.
type TimeStatus struct {
	Current  float32
	Speed    float32
	Playing  bool
	Loop     bool
	NumSteps uint32
}

// FrameReply is the downstream message: full environment state plus
// geometry, enough for any workstation to render the shared scene.
type FrameReply struct {
	Time         TimeStatus
	Users        []UserState
	Rakes        []RakeState
	Geometry     []Geometry
	ComputeNanos int64 // server-side visualization compute time
	LoadNanos    int64 // server-side timestep load time (disk regime)
	// Round identifies the server computation round this reply's
	// content came from. All sessions served within one round receive
	// the same Round (and byte-identical payloads — the encode-once
	// fan-out); a workstation seeing an unchanged Round knows the
	// shared scene did not change.
	Round uint64
	// Degraded reports the frame-budget governor's load-shedding
	// decision for this round: 0 means full fidelity, 1..255 scales
	// with the fraction of integration work shed to hold the frame
	// budget (255 ~ everything clamped to the floor). Clients render a
	// "degraded" cue when it is non-zero.
	Degraded uint8
	// Tools carries the shared field-diagnostic tools (isosurface,
	// cutting plane, vortex cores) when any has ever been touched; nil
	// otherwise. On the wire the section is optional-and-trailing in
	// both codecs, so servers that never activate a tool emit frames
	// byte-identical to builds that predate it.
	Tools *ToolsReply
}

// TotalPoints returns the point count across all geometry, the
// quantity Table 1 prices.
func (r FrameReply) TotalPoints() int {
	var n int
	for _, g := range r.Geometry {
		n += g.NumPoints()
	}
	return n
}

// DatasetInfo describes the dataset the server is holding.
type DatasetInfo struct {
	NI, NJ, NK uint32
	NumSteps   uint32
	DT         float32
	BoundsMin  vmath.Vec3
	BoundsMax  vmath.Vec3
}

// --- encoding helpers -------------------------------------------------

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f32(v float32) { e.u32(math.Float32bits(v)) }
func (e *encoder) vec3(v vmath.Vec3) {
	e.f32(v.X)
	e.f32(v.Y)
	e.f32(v.Z)
}
func (e *encoder) mat4(m vmath.Mat4) {
	for _, v := range m {
		e.f32(v)
	}
}
func (e *encoder) bool(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

type decoder struct {
	buf []byte
	err error
	// skim makes points step over its bytes; arena is what is left of
	// the one array a frame's points are cut from (decoder.points).
	skim  bool
	arena []vmath.Vec3
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("wire: truncated message (need %d, have %d)", n, len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) f32() float32 {
	return math.Float32frombits(d.u32())
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) vec3() vmath.Vec3 {
	return vmath.Vec3{X: d.f32(), Y: d.f32(), Z: d.f32()}
}

// points reads n points, n already checked against the bytes that
// remain (countSized). The first call sizes the arena by those bytes —
// so a message allocates no more point memory than its own length —
// and each result is cut from it with its capacity clipped: appending
// to one line never writes into the next. A skimming decoder makes the
// same bounds check and returns nil.
func (d *decoder) points(n int) []vmath.Vec3 {
	b := d.take(n * PointBytes)
	if d.err != nil || d.skim {
		return nil
	}
	if d.arena == nil {
		d.arena = make([]vmath.Vec3, (len(b)+len(d.buf))/PointBytes)
	}
	pts := d.arena[:n:n]
	d.arena = d.arena[n:]
	readPoints(pts, b)
	return pts
}

func (d *decoder) mat4() vmath.Mat4 {
	var m vmath.Mat4
	for i := range m {
		m[i] = d.f32()
	}
	return m
}

func (d *decoder) bool() bool { return d.u8() != 0 }

// count reads a u32 length and guards it against absurd values so a
// corrupt message cannot force a huge allocation.
func (d *decoder) count(max int) int {
	n := int(d.u32())
	if d.err == nil && (n < 0 || n > max) {
		d.err = fmt.Errorf("wire: count %d exceeds limit %d", n, max)
		return 0
	}
	return n
}

// countSized reads a u32 element count for elements of elemBytes each
// and additionally requires the remaining buffer to be large enough to
// hold them, so a tiny corrupt message cannot force a huge allocation.
func (d *decoder) countSized(max, elemBytes int) int {
	n := d.count(max)
	if d.err == nil && n*elemBytes > len(d.buf) {
		d.err = fmt.Errorf("wire: count %d x %d bytes exceeds remaining %d",
			n, elemBytes, len(d.buf))
		return 0
	}
	return n
}

func (d *decoder) errf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
	return d.err
}

const (
	maxCommands = 4096
	maxEntities = 65536
	maxPoints   = 8 << 20
)
