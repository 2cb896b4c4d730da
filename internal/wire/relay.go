package wire

// The relay protocol is the upstream leg of the cluster tier: a relay
// node (internal/relay) holds one dlib session per downstream
// workstation — preserving per-user identity, FCFS lock ownership, and
// the per-session round-advance rule — but the frame *content* ships
// from the origin at most once per round per relay. Every downstream
// frame call becomes one ProcFrameRelay call upstream carrying the
// workstation's ClientUpdate verbatim plus the relay's cache state
// (the round it holds and the codec-v2 segments it holds); the origin
// answers either a few-byte "round unchanged" marker or a full payload
// delta-encoded against that cache state.
//
// The cache state travels in the request, so the origin keeps no
// per-relay shadow: the exchange cannot desync across relay restarts
// or fault-injected reconnects — a relay with an empty cache simply
// sends LastRound 0 and an empty shadow and receives a full payload.
//
// A full payload carries the origin's encoded codec-v1 round buffer
// verbatim (relays fan those bytes out to v1 workstations untouched,
// and skim them once — SkimFrameReply: the round's header, user, rake
// and tool state and each geometry's key, never a point) plus,
// when the relay asked for them, a geometry directory aligned with the
// frame's geometry list: per rake the codec-v2 sequence number and
// either a reference (the relay already holds that segment) or the
// origin's cached quantized segment bytes verbatim. Shipping encoded
// segments rather than re-quantizing decoded floats is what keeps
// relay-delivered v2 frames byte-identical to direct-connect frames.

import "fmt"

// ProcFrameRelay is the relay-to-upstream frame exchange. Both the
// compute server and relay nodes register it, so relays chain.
const ProcFrameRelay = "vw.framerelay"

// Relay reply kinds.
const (
	relayMarker = 0 // round unchanged since the relay's LastRound
	relayFull   = 1 // full round payload follows
)

// relayWantSegs is the request flag asking for the geometry directory.
const relayWantSegs = 1

// RelayFrameRequest is one downstream workstation's frame call as the
// relay forwards it upstream.
type RelayFrameRequest struct {
	// WantSegs asks for the codec-v2 geometry directory; a relay sets
	// it as soon as any of its downstream sessions negotiated v2.
	WantSegs bool
	// LastRound is the round the relay's cache currently holds from
	// this upstream (0 = empty cache, never matches a live round).
	LastRound uint64
	// Update is the workstation's encoded ClientUpdate, verbatim.
	Update []byte
	// Shadow lists the codec-v2 segments the relay holds (Key and Seq
	// travel; Bytes stay home); the origin replaces matching directory
	// entries with references.
	Shadow []Segment
}

// Directory turns a round's rows, in place, into the geometry
// directory of a full reply to r: a row whose (Key, Seq) the request's
// shadow holds becomes a reference, every other row keeps its bytes.
// It is the one directory rule, the origin's and a relay's. Shadows are
// a handful of entries; the linear scan beats a map.
func (r *RelayFrameRequest) Directory(rows []Segment) {
	for i := range rows {
		for _, e := range r.Shadow {
			if e.Key == rows[i].Key && e.Seq == rows[i].Seq {
				rows[i].Bytes = nil
				break
			}
		}
	}
}

// RelayFrameReply is the upstream answer: a marker when the relay's
// cached round is still current, or the full round payload.
type RelayFrameReply struct {
	Full  bool
	Round uint64
	// Frame is the origin's codec-v1 round buffer, verbatim (full
	// replies only).
	Frame []byte
	// HasDir marks a geometry directory (requests with WantSegs): one
	// row per entry of the frame's geometry list, then one per tool
	// geometry. A row with Bytes carries the origin's quantized segment;
	// a row without references a segment the request's shadow proved
	// the relay holds.
	HasDir bool
	Dir    []Segment
}

// AppendRelayFrameRequest appends the wire encoding of req.
func AppendRelayFrameRequest(dst []byte, req RelayFrameRequest) []byte {
	e := encoder{buf: dst}
	var flags uint8
	if req.WantSegs {
		flags |= relayWantSegs
	}
	e.u8(flags)
	e.u64(req.LastRound)
	e.uvarint(uint64(len(req.Update)))
	e.buf = append(e.buf, req.Update...)
	e.uvarint(uint64(len(req.Shadow)))
	for _, s := range req.Shadow {
		e.uvarint(uint64(uint32(s.Key)))
		e.uvarint(s.Seq)
	}
	return e.buf
}

// DecodeRelayFrameRequest unmarshals a relay frame request. Update
// aliases buf.
func DecodeRelayFrameRequest(buf []byte) (RelayFrameRequest, error) {
	d := decoder{buf: buf}
	var req RelayFrameRequest
	flags := d.u8()
	req.WantSegs = flags&relayWantSegs != 0
	req.LastRound = d.u64()
	n := d.uvarintCount(len(d.buf), 1)
	req.Update = d.take(n)
	nShadow := d.uvarintCount(maxEntities, 2)
	if d.err != nil {
		return RelayFrameRequest{}, d.err
	}
	req.Shadow = make([]Segment, nShadow)
	for i := range req.Shadow {
		req.Shadow[i].Key = int32(uint32(d.uvarint()))
		req.Shadow[i].Seq = d.uvarint()
	}
	if d.err != nil {
		return RelayFrameRequest{}, d.err
	}
	if len(d.buf) != 0 {
		return RelayFrameRequest{}, fmt.Errorf("wire: %d trailing bytes in relay request", len(d.buf))
	}
	return req, nil
}

// AppendRelayMarker appends a round-unchanged marker reply.
func AppendRelayMarker(dst []byte, round uint64) []byte {
	e := encoder{buf: dst}
	e.u8(relayMarker)
	e.u64(round)
	return e.buf
}

// AppendRelayFrameReply appends the wire encoding of rep (marker or
// full, by rep.Full).
func AppendRelayFrameReply(dst []byte, rep RelayFrameReply) []byte {
	if !rep.Full {
		return AppendRelayMarker(dst, rep.Round)
	}
	e := encoder{buf: dst}
	e.u8(relayFull)
	e.u64(rep.Round)
	e.uvarint(uint64(len(rep.Frame)))
	e.buf = append(e.buf, rep.Frame...)
	if !rep.HasDir {
		e.u8(0)
		return e.buf
	}
	e.u8(1)
	e.uvarint(uint64(len(rep.Dir)))
	for _, s := range rep.Dir {
		e.uvarint(uint64(uint32(s.Key)))
		e.uvarint(s.Seq)
		if s.Bytes == nil {
			e.u8(geomRef)
			continue
		}
		e.u8(geomInline)
		e.segment(s.Bytes)
	}
	return e.buf
}

// DecodeRelayFrameReply unmarshals a relay reply. Frame and segment
// bytes alias buf, so the caller may adopt buf for its cache.
func DecodeRelayFrameReply(buf []byte) (RelayFrameReply, error) {
	d := decoder{buf: buf}
	var rep RelayFrameReply
	kind := d.u8()
	rep.Round = d.u64()
	if d.err != nil {
		return RelayFrameReply{}, d.err
	}
	switch kind {
	case relayMarker:
		if len(d.buf) != 0 {
			return RelayFrameReply{}, fmt.Errorf("wire: %d trailing bytes in relay marker", len(d.buf))
		}
		return rep, nil
	case relayFull:
	default:
		return RelayFrameReply{}, fmt.Errorf("wire: unknown relay reply kind %d", kind)
	}
	rep.Full = true
	n := d.uvarintCount(len(d.buf), 1)
	rep.Frame = d.take(n)
	hasDir := d.u8()
	if d.err != nil {
		return RelayFrameReply{}, d.err
	}
	if hasDir == 0 {
		if len(d.buf) != 0 {
			return RelayFrameReply{}, fmt.Errorf("wire: %d trailing bytes in relay reply", len(d.buf))
		}
		return rep, nil
	}
	rep.HasDir = true
	nDir := d.uvarintCount(maxEntities, 3)
	if d.err != nil {
		return RelayFrameReply{}, d.err
	}
	rep.Dir = make([]Segment, nDir)
	for i := range rep.Dir {
		s := &rep.Dir[i]
		s.Key = int32(uint32(d.uvarint()))
		s.Seq = d.uvarint()
		switch k := d.u8(); {
		case d.err != nil:
			return RelayFrameReply{}, d.err
		case k == geomRef:
		case k == geomInline:
			// Every segment has at least a tool byte and a count, so
			// "no bytes" can only ever mean a reference.
			segLen := d.uvarintCount(len(d.buf), 1)
			s.Bytes = d.take(segLen)
			if d.err == nil && segLen == 0 {
				d.errf("empty inline relay segment")
			}
			if d.err != nil {
				return RelayFrameReply{}, d.err
			}
		default:
			return RelayFrameReply{}, fmt.Errorf("wire: unknown relay segment kind %d", k)
		}
	}
	if len(d.buf) != 0 {
		return RelayFrameReply{}, fmt.Errorf("wire: %d trailing bytes in relay reply", len(d.buf))
	}
	return rep, nil
}
