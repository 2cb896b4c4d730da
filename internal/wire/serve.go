package wire

// The serve rule: what a node sends a session for the round it serves.
// The origin (internal/server) and a relay node (internal/relay) answer
// with the same two functions, so a relay is an origin whose round comes
// from upstream and no frame byte depends on which of them a session
// dialled. Each node keeps one Session per dlib session, in its
// dlib.Session.State, and hands the answers its own view of the round: the
// origin its round value, a relay its upstream cache.

// Round is a node's view of the round it serves. A view produces the
// codec-v1 bytes and the segment rows only when an answer asks for them,
// so a round only v2 sessions consume need never encode v1, and one only
// v1 sessions consume never encodes a segment. Everything it returns
// stays valid until the answer that asked has been encoded.
type Round interface {
	// ID is the round number a relay marker names.
	ID() uint64
	// Header is the round's header: everything AppendFrame reads
	// besides the rows.
	Header() *FrameReply
	// V1 is the round's codec-v1 reply, shared by every session and
	// replaced, never rewritten, by the next round.
	V1() []byte
	// Rows is one row per geometry source in frame order — rakes, then
	// tools — each with its encoded codec-v2 segment. An answer may copy
	// them, never rewrite them.
	Rows() []Segment
}

// Session is a serving node's codec record of one session: the codec
// negotiated at hello, the delta-shadow encoder of a v2 session, the
// buffer its v2 frames and relay replies are assembled in — owned by the
// session in dlib.Handler's sense, since only its next call rewrites it —
// and the directory scratch of a relay reply. Codec 0, a session that
// never said hello, is served codec v1.
type Session struct {
	Codec uint8
	enc   *FrameEncoder
	buf   []byte
	dir   []Segment
}

// Shipped counts what one answer put on the wire: for a frame, whether
// it was a codec-v2 assembly and how many of its directory entries went
// inline or by reference; for a relay reply, whether it was full or a
// marker.
type Shipped struct {
	V2, Full    bool
	Inline, Ref int
}

// Hello records the codec negotiated at hello and empties the shadow,
// so a v2 session's next frame is a keyframe — after a re-negotiation
// too.
func (s *Session) Hello(codec uint8) {
	s.Codec = codec
	if s.enc != nil {
		s.enc.Reset()
	} else if codec >= CodecV2 {
		s.enc = NewFrameEncoder()
	}
}

// AnswerFrame is the vw.frame answer: the round's shared codec-v1 bytes
// verbatim, or for a v2 session the round assembled against the
// session's shadow — each row's segment, or a reference when the shadow
// already holds its sequence.
//
//vw:hotpath
func (s *Session) AnswerFrame(r Round) ([]byte, Shipped) {
	if s.Codec < CodecV2 {
		return r.V1(), Shipped{}
	}
	s.buf = s.enc.AppendFrame(s.buf[:0], *r.Header(), r.Rows())
	return s.buf, Shipped{V2: true, Inline: s.enc.LastInline, Ref: s.enc.LastRef}
}

// AnswerRelay is the vw.framerelay answer to req: a marker when the
// relay already holds the round, otherwise the round's codec-v1 bytes
// plus, when asked, the directory of its rows against the relay's
// shadow (RelayFrameRequest.Directory, applied to a copy).
//
//vw:hotpath
func (s *Session) AnswerRelay(req *RelayFrameRequest, r Round) ([]byte, Shipped) {
	rep := RelayFrameReply{Round: r.ID()}
	if req.LastRound != rep.Round {
		rep.Full, rep.Frame = true, r.V1()
		if req.WantSegs {
			s.dir = append(s.dir[:0], r.Rows()...)
			req.Directory(s.dir)
			rep.HasDir, rep.Dir = true, s.dir
		}
	}
	s.buf = AppendRelayFrameReply(s.buf[:0], rep)
	return s.buf, Shipped{Full: rep.Full}
}
