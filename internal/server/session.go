package server

// The session layer: everything between a dlib connection and the
// compute core. It owns codec negotiation, per-session delta-shadow
// state and reply buffers, the encode-once round reply, command
// validation, and the relay exchange that lets cluster-tier nodes
// (internal/relay) fan one round out to many workstations. The
// compute layer (compute.go) never sees a session; this file never
// integrates a streamline. The split is the seam the cluster tier
// routes across.

import (
	"encoding/binary"
	"math"

	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// sessionState is the per-session wire state: the codec accepted at
// hello, for v2 sessions the delta-shadow encoder tracking which
// geometry sequence numbers the workstation already holds, and buf, in
// which every codec-v2 and relay reply to the session is assembled —
// session-owned in dlib.Handler's sense, since only this session's next
// call rewrites it. Guarded by Server.mu; it dies with the session
// (disconnect), which is what forces a full keyframe on reconnect.
type sessionState struct {
	codec uint8
	enc   *wire.FrameEncoder
	buf   []byte
}

// sessionLocked returns id's session state, creating it on the first
// call that needs one: a hello2, or a relay's first frame exchange.
// Caller holds s.mu.
func (s *Server) sessionLocked(id int64) *sessionState {
	st := s.codecs[id]
	if st == nil {
		st = &sessionState{}
		s.codecs[id] = st
	}
	return st
}

// datasetInfo describes the dataset for the hello. The bounds double
// as the codec-v2 quantization box, so they must match s.quant exactly.
func (s *Server) datasetInfo() wire.DatasetInfo {
	g := s.src.Grid()
	b := g.Bounds()
	return wire.DatasetInfo{
		NI: uint32(g.NI), NJ: uint32(g.NJ), NK: uint32(g.NK),
		NumSteps:  uint32(s.src.NumSteps()),
		DT:        s.src.DT(),
		BoundsMin: b.Min,
		BoundsMax: b.Max,
	}
}

// handleHello2 is the hello every session opens with: the client
// states the highest codec it speaks, the server answers with the codec
// this session will use (bounded by Config.MaxCodec) plus the dataset
// info. A session that never calls it is served codec v1.
// Re-negotiating mid-session resets the delta shadow, so the next frame
// is a keyframe.
func (s *Server) handleHello2(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	req, err := wire.DecodeHelloRequest(payload)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	codec := wire.NegotiateCodec(req, uint8(s.cfg.MaxCodec))
	st := s.sessionLocked(ctx.Session.ID)
	st.codec = codec
	if codec >= wire.CodecV2 {
		s.wantSegs = true
	}
	if st.enc != nil {
		st.enc.Reset()
	}
	s.mu.Unlock()
	return wire.EncodeHelloReply(codec, s.datasetInfo()), nil
}

func (s *Server) handleWhoAmI(ctx *dlib.Ctx, _ []byte) ([]byte, error) {
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(ctx.Session.ID))
	return out[:], nil
}

// applyUpdate applies one decoded ClientUpdate — pose, then commands —
// for user. Shared by the direct and relay frame paths so both enforce
// the same validation.
func (s *Server) applyUpdate(user int64, u wire.ClientUpdate) {
	if finiteMat4(u.Head) && finiteVec3(u.Hand) {
		// A NaN/Inf pose would poison every participant's user list;
		// keep the previous pose instead.
		s.env.SetUserPose(user, env.UserPose{Head: u.Head, Hand: u.Hand, Gesture: u.Gesture})
	}
	// Command failures (e.g. grabbing a held rake) must not kill the
	// frame; the client learns the outcome from the returned state.
	for _, cmd := range u.Commands {
		s.applyCommand(user, cmd)
	}
}

// handleFrame is the once-per-frame exchange. dlib guarantees serial
// execution, so handler-side state needs no extra locking against
// other calls — the mutex protects against Stats() readers.
//
//vw:hotpath
func (s *Server) handleFrame(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	u, err := wire.DecodeClientUpdate(payload)
	if err != nil {
		return nil, err
	}
	user := ctx.Session.ID
	s.applyUpdate(user, u)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.advanceLocked(user, u.Commands); err != nil {
		return nil, err
	}
	// Codec v2 sessions get a per-session assembly: the shared round
	// payload (header meta + cached per-rake segments) filtered through
	// this session's delta shadow.
	if st := s.codecs[user]; st != nil && st.codec >= wire.CodecV2 {
		return s.serveFrameV2Locked(st), nil
	}
	// Encode-once fan-out: every v1 session of the round is handed the
	// same bytes, which dlib writes zero-copy.
	reply := s.v1ReplyLocked()
	s.stats.FramesShipped++
	s.stats.BytesShipped += int64(len(reply))
	return reply, nil
}

// advanceLocked is the round-advance rule both frame procedures share:
// a new round is computed when user has already consumed the current
// one, or when it just issued commands — the user must see the effect of
// their own interaction within this frame (§1.2's 1/8-second
// command-to-display loop). Either way user has now consumed the round.
// Caller holds s.mu.
//
//vw:hotpath
func (s *Server) advanceLocked(user int64, commands []wire.Command) error {
	r := &s.round
	if r.meta.Round == 0 || r.consumedBy[user] || len(commands) > 0 {
		if err := s.recomputeLocked(); err != nil {
			return err
		}
	}
	r.consumedBy[user] = true
	return nil
}

// v1ReplyLocked returns the round's shared codec-v1 reply, encoding it
// on the round's first request from the round's header, which stands
// until the next fresh round (a round the whole-frame memo re-serves
// included). The encode goes into a new buffer, sized by the last one:
// a reply handed out is never rewritten, so it stays valid for every
// write still in flight, and a re-served round hands out the same bytes
// again. They are the ones an encode inside the round would have
// produced. Caller holds s.mu.
func (s *Server) v1ReplyLocked() []byte {
	r := &s.round
	if !r.v1Ready {
		start := s.cfg.Clock.Now()
		r.v1 = wire.AppendFrameReply(make([]byte, 0, len(r.v1)), r.meta)
		r.v1Ready = true
		d := s.cfg.Clock.Now().Sub(start)
		s.stats.V1Encodes++
		s.stats.EncodeTime += d
		s.stats.V1Bytes += int64(len(r.v1))
	}
	return r.v1
}

// serveFrameV2Locked assembles this session's codec-v2 reply from the
// shared round payload: the round's header plus, per rake and tool on
// the round list, either the shared cached segment (encoded once per
// geometry version, for every session) or — when the session's shadow
// already holds the source's current sequence — a few-byte reference
// record. The reply lands in the session's own buf. Caller holds s.mu.
func (s *Server) serveFrameV2Locked(st *sessionState) []byte {
	if st.enc == nil {
		st.enc = wire.NewFrameEncoder()
	}
	st.buf = st.enc.AppendFrame(st.buf[:0], s.round.meta, s.roundRowsLocked())
	s.stats.FramesShipped++
	s.stats.V2Frames++
	s.stats.V2RakesInline += int64(st.enc.LastInline)
	s.stats.V2RakesRef += int64(st.enc.LastRef)
	s.stats.BytesShipped += int64(len(st.buf))
	return st.buf
}

// roundRowsLocked walks the round list — rakes, then tools, aligned
// with the round's geometry followed by its tool geometry — into one
// wire.Segment row per source, each carrying its segment: a v2
// session's encoder picks the references, a relay's request turns its
// rows into a directory (wire.RelayFrameRequest.Directory). The rows
// alias the segment cache and the scratch, so they are valid only until
// the reply encode that follows. Caller holds s.mu.
func (s *Server) roundRowsLocked() []wire.Segment {
	s.segScratch = s.segScratch[:0]
	for i, sc := range s.round.segs {
		s.encodeSegLocked(i)
		s.segScratch = append(s.segScratch, wire.Segment{Key: sc.key, Seq: sc.seq, Bytes: sc.seg})
	}
	return s.segScratch
}

// encodeSegLocked ensures round-list entry i holds the codec-v2
// segment for its current geometry sequence — encode-once, v2 edition:
// normally the pool job that computed the geometry wrote it; this is
// the same encode's second call site, for geometry computed before the
// server saw its first v2 consumer. Either way the segment is reused
// until the source recomputes, so every consumer ships identical
// quantized bytes. Caller holds s.mu.
func (s *Server) encodeSegLocked(i int) {
	r := &s.round
	sc := r.segs[i]
	if sc.segSeq == sc.seq {
		return
	}
	s.stats.SegmentsEncoded++
	if n := len(r.meta.Geometry); i < n {
		sc.seg = wire.AppendGeomV2(sc.seg[:0], r.meta.Geometry[i], s.quant)
	} else {
		sc.seg = wire.AppendToolGeomV2(sc.seg[:0], r.tools.Geoms[i-n], s.quant)
	}
	sc.segSeq = sc.seq
}

// handleFrameRelay is the cluster tier's upstream frame exchange: one
// downstream workstation's frame call, forwarded by a relay node with
// its cache state attached. The pose/command application and the
// round-advance rule are handleFrame's (applyUpdate, advanceLocked) —
// the relay holds one upstream session per downstream workstation, so
// identity, FCFS lock ownership, and round accounting are untouched by
// the hop. Only
// the reply differs: a marker when the relay's cached round is still
// current, otherwise the encoded v1 round buffer verbatim plus (when
// asked) the geometry directory delta-encoded against the relay's
// segment shadow. The relay re-fans the payload to its local
// workstations byte-identically.
//
//vw:hotpath
func (s *Server) handleFrameRelay(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
	req, err := wire.DecodeRelayFrameRequest(payload)
	if err != nil {
		return nil, err
	}
	u, err := wire.DecodeClientUpdate(req.Update)
	if err != nil {
		return nil, err
	}
	user := ctx.Session.ID
	s.applyUpdate(user, u)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.advanceLocked(user, u.Commands); err != nil {
		return nil, err
	}

	cur := s.round.meta.Round
	st := s.sessionLocked(user)
	if req.LastRound == cur {
		// The relay already holds this round's payload; ship 9 bytes.
		st.buf = wire.AppendRelayMarker(st.buf[:0], cur)
		s.stats.RelayMarkers++
	} else {
		rep := wire.RelayFrameReply{Full: true, Round: cur, Frame: s.v1ReplyLocked()}
		if req.WantSegs {
			s.wantSegs = true
			rep.HasDir = true
			rep.Dir = s.roundRowsLocked()
			req.Directory(rep.Dir)
		}
		st.buf = wire.AppendRelayFrameReply(st.buf[:0], rep)
		s.stats.RelayFulls++
	}
	s.stats.RelayBytes += int64(len(st.buf))
	return st.buf, nil
}

// finiteVec3 reports whether every component is a finite number.
func finiteVec3(v vmath.Vec3) bool {
	return finite32(v.X) && finite32(v.Y) && finite32(v.Z)
}

// finiteMat4 reports whether every element is a finite number.
func finiteMat4(m vmath.Mat4) bool {
	for _, v := range m {
		if !finite32(v) {
			return false
		}
	}
	return true
}

func finite32(f float32) bool {
	// NaN != NaN; the bound excludes ±Inf.
	return f == f && f <= math.MaxFloat32 && f >= -math.MaxFloat32
}

// validTool reports whether a client-supplied tool id is a known
// visualization tool.
func validTool(t uint8) bool {
	return integrate.ToolKind(t) <= integrate.ToolStreakline
}

// clampSeeds bounds a client-requested seed count. Values above the
// cap are clamped rather than rejected, matching the command model's
// swallow-and-show-state philosophy; non-positive values pass through
// to the environment's own validation.
func (s *Server) clampSeeds(n int) int {
	if n > s.cfg.MaxSeedsPerRake {
		return s.cfg.MaxSeedsPerRake
	}
	return n
}

// applyCommand executes one user command against the environment.
// Errors are deliberately swallowed after the conflict rules run:
// "possible conflicting commands from different workstations are
// easily handled ... by a 'first come first served' rule." Hostile
// numeric payloads (NaN/Inf endpoints, unknown tool ids) are dropped
// here, before they can reach the environment: a rejected command must
// not bump any version counter or corrupt shared state.
func (s *Server) applyCommand(user int64, c wire.Command) {
	switch c.Kind {
	case wire.CmdAddRake:
		if !finiteVec3(c.P0) || !finiteVec3(c.P1) || !validTool(c.Tool) {
			return
		}
		s.env.AddRake(c.P0, c.P1, s.clampSeeds(int(c.NumSeeds)), integrate.ToolKind(c.Tool))
	case wire.CmdRemoveRake:
		if s.env.RemoveRake(user, c.Rake) == nil {
			s.mu.Lock()
			delete(s.streaks, c.Rake)
			delete(s.geoCache, c.Rake)
			s.mu.Unlock()
		}
	case wire.CmdGrab:
		s.env.GrabRake(user, c.Rake, integrate.GrabPoint(c.Grab))
	case wire.CmdRelease:
		s.env.ReleaseRake(user, c.Rake)
	case wire.CmdMove:
		if !finiteVec3(c.Pos) {
			return
		}
		s.env.MoveRake(user, c.Rake, c.Pos)
	case wire.CmdSetSeeds:
		s.env.SetRakeSeeds(user, c.Rake, s.clampSeeds(int(c.NumSeeds)))
	case wire.CmdSetPlaying:
		s.env.SetPlaying(c.Flag != 0)
	case wire.CmdSetSpeed:
		if !finite32(c.Value) {
			return
		}
		s.env.SetSpeed(c.Value)
	case wire.CmdSeek:
		if !finite32(c.Value) {
			return
		}
		s.env.SeekTime(c.Value)
	case wire.CmdSetLoop:
		s.env.SetLoop(c.Flag != 0)
	case wire.CmdSetTool:
		if !validTool(c.Tool) {
			return
		}
		if s.env.SetRakeTool(user, c.Rake, integrate.ToolKind(c.Tool)) == nil {
			// Tool changes orphan any streak state.
			s.mu.Lock()
			delete(s.streaks, c.Rake)
			s.mu.Unlock()
		}
	case wire.CmdSteerGrab:
		s.env.GrabSteer(user)
	case wire.CmdSteerRelease:
		s.env.ReleaseSteer(user)
	case wire.CmdSteer:
		// P0 carries (inlet velocity, Reynolds, taper) as one atomic
		// triple. Hostile values — NaN Reynolds, negative velocity,
		// absurd taper — are dropped before they can reach the solver.
		p := env.SteerParams{InflowU: c.P0.X, Reynolds: c.P0.Y, Taper: c.P0.Z}
		if validSteerParams(p) {
			s.env.SetSteer(user, p)
		}
	case wire.CmdIsoGrab, wire.CmdPlaneGrab:
		s.env.GrabTool(user, toolOf(c.Kind))
	case wire.CmdIsoRelease, wire.CmdPlaneRelease:
		s.env.ReleaseTool(user, toolOf(c.Kind))
	case wire.CmdIsoSet, wire.CmdPlaneMove, wire.CmdVortexToggle:
		// Flag toggles the tool and Value is its level, fraction or
		// threshold; Grab carries the cutting plane's axis. Hostile
		// values — NaN/Inf, out of the tool's envelope, a bad axis — are
		// dropped before they can poison an extraction or bump the tool
		// version.
		id := toolOf(c.Kind)
		p := env.ToolParams{Enabled: c.Flag != 0, Value: c.Value}
		if id == env.ToolPlane {
			p.Axis = c.Grab
		}
		if validToolParams(id, p) {
			s.env.SetTool(user, id, p)
		}
	}
}

// toolOf names the shared tool a tool command acts on.
func toolOf(k wire.CmdKind) env.ToolID {
	switch k {
	case wire.CmdIsoGrab, wire.CmdIsoSet, wire.CmdIsoRelease:
		return env.ToolIso
	case wire.CmdPlaneGrab, wire.CmdPlaneMove, wire.CmdPlaneRelease:
		return env.ToolPlane
	}
	return env.ToolVortex
}

// validSteerParams bounds the live flow parameters to a physically
// sane envelope: positive bounded inlet speed, a Reynolds number the
// explicit diffusion step can survive, a taper that neither vanishes
// the cylinder tip nor doubles the base. finite32 screens NaN/Inf
// before the comparisons (NaN fails every bound anyway, but be
// explicit).
func validSteerParams(p env.SteerParams) bool {
	if !finite32(p.InflowU) || !finite32(p.Reynolds) || !finite32(p.Taper) {
		return false
	}
	return p.InflowU > 0 && p.InflowU <= 100 &&
		p.Reynolds >= 1 && p.Reynolds <= 1e6 &&
		p.Taper >= 0.05 && p.Taper <= 2
}
