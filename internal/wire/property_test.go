package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vmath"
)

// The frame-script property: one FrameEncoder/FrameDecoder pair driven
// through a seeded random scene history — rakes added, recomputed,
// removed and re-added under old and new sequence numbers; tools
// enabled, releveled and disabled; the tool section absent, present,
// and absent again; entries shipped unshadowed (Seq 0) — must reproduce every frame
// within the quantizer's error bound, and a second pair fed the same
// frames must emit the same bytes. A reference the decoder cannot
// resolve is the symptom of the two ends pruning their shadows
// differently, which is what the script is built to provoke.

// appendFrame is the script's one seam to the encoder's signature.
func appendFrame(e *FrameEncoder, dst []byte, r FrameReply, rows []Segment) []byte {
	return e.AppendFrame(dst, r, rows)
}

// scriptSource is one rake or tool in the scripted scene. A source
// that leaves keeps its last content so it can return unchanged.
type scriptSource struct {
	live bool
	seq  uint64
	geo  Geometry // rakes
	tool ToolGeom // tools
}

type frameScript struct {
	rng     *rand.Rand
	q       Quantizer
	nextSeq uint64
	round   uint64
	rakes   [6]scriptSource // rake id = index + 1
	tools   [3]scriptSource // tool kind = index + 1
	touched bool            // any tool ever enabled: frames may carry the section
	users   []UserState
}

func (s *frameScript) chance(pct int) bool { return s.rng.Intn(100) < pct }

// refresh gives a source new content under a new sequence number.
func (s *frameScript) refresh(src *scriptSource, id int, isTool bool) {
	s.nextSeq++
	src.seq = s.nextSeq
	if !isTool {
		src.geo = randGeometry(s.rng, int32(id), s.q)
		return
	}
	src.tool = ToolGeom{Tool: uint8(id), Points: make([]vmath.Vec3, s.rng.Intn(12))}
	for p := range src.tool.Points {
		src.tool.Points[p] = inBoxPoint(s.rng, s.q)
	}
}

// step mutates one family of sources: live ones recompute or leave,
// absent ones return — half the time with the content (and sequence
// number) they left with, which only a pruned shadow re-inlines.
func (s *frameScript) step(srcs []scriptSource, isTool bool) {
	for i := range srcs {
		src := &srcs[i]
		switch {
		case src.live && s.chance(20):
			s.refresh(src, i+1, isTool)
		case src.live && s.chance(12):
			src.live = false
		case !src.live && s.chance(25):
			src.live = true
			if src.seq == 0 || s.chance(50) {
				s.refresh(src, i+1, isTool)
			}
			s.touched = s.touched || isTool
		}
	}
}

// next advances the scene and returns the frame with its segment rows.
func (s *frameScript) next() (FrameReply, []Segment) {
	s.step(s.rakes[:], false)
	s.step(s.tools[:], true)
	s.round++
	r := FrameReply{
		Time:  TimeStatus{Current: float32(s.round) / 4, Playing: s.chance(50), NumSteps: 16},
		Round: s.round, ComputeNanos: int64(s.rng.Intn(1000)), Degraded: uint8(s.rng.Intn(3)),
	}
	// Users come, go, and move; rake states follow the live rakes.
	if s.chance(30) {
		s.users = append(s.users, UserState{ID: int64(s.rng.Intn(4) + 1), Head: vmath.Identity()})
	}
	if len(s.users) > 0 && s.chance(20) {
		s.users = s.users[1:]
	}
	seen := map[int64]bool{}
	for _, u := range s.users {
		if !seen[u.ID] {
			seen[u.ID] = true
			if s.chance(30) {
				u.Hand = inBoxPoint(s.rng, s.q)
			}
			r.Users = append(r.Users, u)
		}
	}
	var rows []Segment
	row := func(key int32, seq uint64, seg []byte) {
		if s.chance(10) {
			seq = 0 // unshadowed: always inline, and forgotten by both ends
		}
		rows = append(rows, Segment{Key: key, Seq: seq, Bytes: seg})
	}
	for i := range s.rakes {
		if src := &s.rakes[i]; src.live {
			r.Rakes = append(r.Rakes, RakeState{ID: src.geo.Rake, NumSeeds: uint32(len(src.geo.Lines)), Tool: src.geo.Tool})
			r.Geometry = append(r.Geometry, src.geo)
			row(src.geo.Rake, src.seq, AppendGeomV2(nil, src.geo, s.q))
		}
	}
	// Once a tool has been touched most frames carry the section, but
	// not all: a frame without it must leave the tool shadows standing.
	if s.touched && !s.chance(15) {
		r.Tools = &ToolsReply{
			Iso:    ToolState{Enabled: s.tools[0].live, Value: 0.8},
			Plane:  ToolState{Enabled: s.tools[1].live, Axis: 1, Value: 0.5},
			Vortex: ToolState{Enabled: s.tools[2].live, Value: 0.01, Holder: 2},
		}
		for i := range s.tools {
			if src := &s.tools[i]; src.live {
				r.Tools.Geoms = append(r.Tools.Geoms, src.tool)
				row(-int32(src.tool.Tool), src.seq, AppendToolGeomV2(nil, src.tool, s.q))
			}
		}
	}
	return r, rows
}

// shadowOracle is the reference model of the delta rule, kept as two
// plain maps: which entries of a frame a correct encoder references.
// It pins what a mirrored pair cannot show by itself — a rule both
// ends get wrong the same way (tool keys aliasing rake keys, one
// section's entries counted against the other's) still decodes.
type shadowOracle struct {
	rakes, tools map[int32]uint64
}

// refs folds one frame into the model and returns how many of its
// directory entries must go by reference.
func (o *shadowOracle) refs(r FrameReply, rows []Segment) (n int) {
	section := func(shadow map[int32]uint64, ids []int32, rows []Segment) {
		for i, id := range ids {
			switch seq := rows[i].Seq; {
			case seq != 0 && shadow[id] == seq:
				n++
			case seq != 0:
				shadow[id] = seq
			default:
				delete(shadow, id)
			}
		}
		// A section holding no more entries than the frame lists is
		// left alone; otherwise entries the frame does not name go.
		if len(shadow) <= len(ids) {
			return
		}
		listed := map[int32]bool{}
		for _, id := range ids {
			listed[id] = true
		}
		for id := range shadow {
			if !listed[id] {
				delete(shadow, id)
			}
		}
	}
	var ids []int32
	for _, g := range r.Geometry {
		ids = append(ids, g.Rake)
	}
	section(o.rakes, ids, rows)
	if r.Tools != nil {
		ids = nil
		for _, g := range r.Tools.Geoms {
			ids = append(ids, int32(g.Tool))
		}
		section(o.tools, ids, rows[len(r.Geometry):])
	}
	return n
}

// pointsMatch reports whether got reproduces want within the
// quantizer's per-axis bound (plus float32 representation slack).
func pointsMatch(got, want []vmath.Vec3, q Quantizer) bool {
	if len(got) != len(want) {
		return false
	}
	bound := q.MaxError()
	near := func(a, b, maxErr, scale float32) bool {
		return math.Abs(float64(a)-float64(b)) <= float64(maxErr)+math.Abs(float64(scale))*1e-5
	}
	for i := range want {
		if !near(got[i].X, want[i].X, bound.X, q.Max.X) ||
			!near(got[i].Y, want[i].Y, bound.Y, q.Max.Y) ||
			!near(got[i].Z, want[i].Z, bound.Z, q.Max.Z) {
			return false
		}
	}
	return true
}

// frameMatches reports whether a decoded frame reproduces the encoded
// one: everything but the points exactly, the points within bound.
func frameMatches(got, want FrameReply, q Quantizer) bool {
	if got.Time != want.Time || got.Round != want.Round || got.ComputeNanos != want.ComputeNanos ||
		got.Degraded != want.Degraded || len(got.Users) != len(want.Users) ||
		len(got.Rakes) != len(want.Rakes) || len(got.Geometry) != len(want.Geometry) ||
		(got.Tools == nil) != (want.Tools == nil) {
		return false
	}
	for i := range want.Users {
		if got.Users[i] != want.Users[i] {
			return false
		}
	}
	for i := range want.Rakes {
		if got.Rakes[i] != want.Rakes[i] {
			return false
		}
	}
	for i, w := range want.Geometry {
		g := got.Geometry[i]
		if g.Rake != w.Rake || g.Tool != w.Tool || len(g.Lines) != len(w.Lines) {
			return false
		}
		for l := range w.Lines {
			if !pointsMatch(g.Lines[l], w.Lines[l], q) {
				return false
			}
		}
	}
	if want.Tools == nil {
		return true
	}
	if got.Tools.Iso != want.Tools.Iso || got.Tools.Plane != want.Tools.Plane ||
		got.Tools.Vortex != want.Tools.Vortex || len(got.Tools.Geoms) != len(want.Tools.Geoms) {
		return false
	}
	for i, w := range want.Tools.Geoms {
		if g := got.Tools.Geoms[i]; g.Tool != w.Tool || !pointsMatch(g.Points, w.Points, q) {
			return false
		}
	}
	return true
}

func TestFrameScriptProperty(t *testing.T) {
	q := Quantizer{Min: vmath.V3(-4, 0, 2), Max: vmath.V3(12, 10, 2.5)}
	for seed := int64(1); seed <= 40; seed++ {
		script := &frameScript{rng: rand.New(rand.NewSource(seed)), q: q}
		encA, decA := NewFrameEncoder(), NewFrameDecoder(q)
		encB, decB := NewFrameEncoder(), NewFrameDecoder(q)
		oracle := shadowOracle{rakes: map[int32]uint64{}, tools: map[int32]uint64{}}
		sawRef, sawToolGap := false, false
		for frame := 0; frame < 80; frame++ {
			r, rows := script.next()
			a := appendFrame(encA, nil, r, rows)
			got, err := decA.Decode(a)
			if err != nil {
				t.Fatalf("seed %d frame %d: decode: %v", seed, frame, err)
			}
			if !frameMatches(got, r, q) {
				t.Fatalf("seed %d frame %d: decoded frame differs from the encoded one beyond MaxError", seed, frame)
			}
			entries := len(r.Geometry)
			if r.Tools != nil {
				entries += len(r.Tools.Geoms)
			}
			if want := oracle.refs(r, rows); encA.LastRef != want || encA.LastInline != entries-want {
				t.Fatalf("seed %d frame %d: directory is %d inline + %d ref, reference model says %d + %d",
					seed, frame, encA.LastInline, encA.LastRef, entries-want, want)
			}
			sawRef = sawRef || encA.LastRef > 0
			sawToolGap = sawToolGap || (script.touched && r.Tools == nil)

			b := appendFrame(encB, nil, r, rows)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d frame %d: a second encoder fed the same frames emitted different bytes", seed, frame)
			}
			if _, err := decB.Decode(b); err != nil {
				t.Fatalf("seed %d frame %d: second decoder: %v", seed, frame, err)
			}
		}
		if !sawRef || !sawToolGap {
			t.Fatalf("seed %d: script never exercised references (%v) or a missing tool section (%v)",
				seed, sawRef, sawToolGap)
		}
	}
}
