package wire

import (
	"bytes"
	"strings"
	"testing"
)

// relayRequests is the round-trip corpus for the upstream leg: empty
// cache, marker-eligible cache state, and a populated v2 shadow.
var relayRequests = []RelayFrameRequest{
	{},
	{LastRound: 7, Update: []byte{1, 2, 3}},
	{
		WantSegs:  true,
		LastRound: 41,
		Update:    bytes.Repeat([]byte{0xab}, 64),
		Shadow: []Segment{
			{Key: 1, Seq: 9},
			{Key: 12, Seq: 1},
			{Key: -3, Seq: 1 << 40}, // tool keys (and hostile ids) must survive the trip
		},
	},
}

func TestRelayFrameRequestRoundTrip(t *testing.T) {
	for i, req := range relayRequests {
		buf := AppendRelayFrameRequest(nil, req)
		got, err := DecodeRelayFrameRequest(buf)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got.WantSegs != req.WantSegs || got.LastRound != req.LastRound {
			t.Errorf("request %d: header = (%v, %d), want (%v, %d)",
				i, got.WantSegs, got.LastRound, req.WantSegs, req.LastRound)
		}
		if !bytes.Equal(got.Update, req.Update) {
			t.Errorf("request %d: update bytes differ", i)
		}
		if len(got.Shadow) != len(req.Shadow) {
			t.Fatalf("request %d: %d shadow entries, want %d", i, len(got.Shadow), len(req.Shadow))
		}
		for j, e := range req.Shadow {
			if got.Shadow[j].Key != e.Key || got.Shadow[j].Seq != e.Seq {
				t.Errorf("request %d shadow %d = %+v, want %+v", i, j, got.Shadow[j], e)
			}
		}
	}
}

func TestRelayDirectory(t *testing.T) {
	req := RelayFrameRequest{Shadow: []Segment{{Key: 1, Seq: 9}, {Key: 2, Seq: 4}}}
	held, other := []byte{1}, []byte{2}
	rows := []Segment{
		{Key: 1, Seq: 9, Bytes: held},
		{Key: 2, Seq: 4, Bytes: held},
		// A stale sequence number must not match: the relay holds an
		// old segment and the origin must inline the new one.
		{Key: 1, Seq: 10, Bytes: other},
		{Key: 3, Seq: 9, Bytes: other},
	}
	req.Directory(rows)
	for i, row := range rows {
		if held := i < 2; (row.Bytes == nil) != held {
			t.Errorf("row %d (%d, %d): %d bytes, want a reference: %v", i, row.Key, row.Seq, len(row.Bytes), held)
		}
	}
}

// relayReplies is the round-trip corpus for the downstream answer:
// marker, bare v1 full, and a full with a mixed inline/reference
// geometry directory.
var relayReplies = []RelayFrameReply{
	{Round: 3},
	{Full: true, Round: 9, Frame: []byte{CodecV1, 0, 0}},
	{
		Full:   true,
		Round:  10,
		Frame:  bytes.Repeat([]byte{0x5c}, 48),
		HasDir: true,
		Dir: []Segment{
			{Key: 1, Seq: 4, Bytes: []byte{9, 9, 9}},
			{Key: 2, Seq: 17},                      // reference: the shadow already holds it
			{Key: -1, Seq: 1, Bytes: []byte{1, 0}}, // the smallest segment: a tool byte and a zero count
		},
	},
}

func TestRelayFrameReplyRoundTrip(t *testing.T) {
	for i, rep := range relayReplies {
		buf := AppendRelayFrameReply(nil, rep)
		got, err := DecodeRelayFrameReply(buf)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got.Full != rep.Full || got.Round != rep.Round || got.HasDir != rep.HasDir {
			t.Errorf("reply %d: header = (%v, %d, %v), want (%v, %d, %v)",
				i, got.Full, got.Round, got.HasDir, rep.Full, rep.Round, rep.HasDir)
		}
		if !bytes.Equal(got.Frame, rep.Frame) {
			t.Errorf("reply %d: frame bytes differ", i)
		}
		if len(got.Dir) != len(rep.Dir) {
			t.Fatalf("reply %d: %d dir entries, want %d", i, len(got.Dir), len(rep.Dir))
		}
		for j, e := range rep.Dir {
			g := got.Dir[j]
			if g.Key != e.Key || g.Seq != e.Seq || (g.Bytes == nil) != (e.Bytes == nil) || !bytes.Equal(g.Bytes, e.Bytes) {
				t.Errorf("reply %d dir %d = %+v, want %+v", i, j, g, e)
			}
		}
	}
}

// TestRelayMarkerEncoding pins the marker's bytes: it is the common
// steady-state answer, a kind byte and the 8-byte round and nothing
// else, and it must decode to the round it names.
func TestRelayMarkerEncoding(t *testing.T) {
	a := AppendRelayFrameReply(nil, RelayFrameReply{Round: 77})
	if want := []byte{relayMarker, 77, 0, 0, 0, 0, 0, 0, 0}; !bytes.Equal(a, want) {
		t.Fatalf("marker = % x, want % x", a, want)
	}
	if rep, err := DecodeRelayFrameReply(a); err != nil || rep.Full || rep.Round != 77 {
		t.Errorf("marker decodes to %+v, %v", rep, err)
	}
}

// TestRelayDecodeTruncation feeds every strict prefix of each valid
// message to the decoders: network reads truncate at arbitrary byte
// boundaries, and a truncated relay message must error, never panic and
// never decode to a plausible value.
func TestRelayDecodeTruncation(t *testing.T) {
	for i, req := range relayRequests {
		buf := AppendRelayFrameRequest(nil, req)
		for n := 0; n < len(buf); n++ {
			if _, err := DecodeRelayFrameRequest(buf[:n]); err == nil {
				t.Fatalf("request %d truncated to %d/%d bytes decoded cleanly", i, n, len(buf))
			}
		}
	}
	for i, rep := range relayReplies {
		buf := AppendRelayFrameReply(nil, rep)
		for n := 0; n < len(buf); n++ {
			if _, err := DecodeRelayFrameReply(buf[:n]); err == nil {
				t.Fatalf("reply %d truncated to %d/%d bytes decoded cleanly", i, n, len(buf))
			}
		}
	}
}

func TestRelayDecodeHostileInput(t *testing.T) {
	// Trailing garbage after a well-formed message.
	req := append(AppendRelayFrameRequest(nil, relayRequests[1]), 0xee)
	if _, err := DecodeRelayFrameRequest(req); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing request bytes: err = %v", err)
	}
	for i, rep := range relayReplies {
		buf := append(AppendRelayFrameReply(nil, rep), 0xee)
		if _, err := DecodeRelayFrameReply(buf); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("trailing reply bytes (%d): err = %v", i, err)
		}
	}

	// A tiny message claiming a huge shadow count must be rejected by
	// the entity bound, not allocated.
	hostile := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0 /* round */, 0 /* update len */}
	hostile = append(hostile, 0xff, 0xff, 0xff, 0x7f) // shadow count ~ 2^28
	if _, err := DecodeRelayFrameRequest(hostile); err == nil {
		t.Error("hostile shadow count accepted")
	}

	// Unknown reply and segment kinds.
	if _, err := DecodeRelayFrameReply([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown reply kind accepted")
	}
	bad := AppendRelayFrameReply(nil, relayReplies[2])
	// Corrupt the first directory entry's kind byte. The inline entry
	// encodes as rake, seq, kind, seglen, seg — so the kind byte sits
	// two bytes before the distinctive segment payload.
	bad[bytes.Index(bad, []byte{9, 9, 9})-2] = 0x7e
	if _, err := DecodeRelayFrameReply(bad); err == nil {
		t.Error("unknown segment kind accepted")
	}

	// An inline entry with no bytes would read back as a reference; the
	// decoder refuses it (a real segment is never shorter than 2 bytes).
	e := encoder{}
	e.u8(relayFull)
	e.u64(1)
	e.uvarint(0) // empty frame
	e.u8(1)      // has directory
	e.uvarint(1) // one entry
	e.uvarint(1) // key
	e.uvarint(1) // seq
	e.u8(geomInline)
	e.uvarint(0) // zero-length segment
	if _, err := DecodeRelayFrameReply(e.buf); err == nil || !strings.Contains(err.Error(), "empty inline") {
		t.Errorf("empty inline segment: err = %v", err)
	}
}

// Fuzz targets for the relay codec: like the other wire decoders these
// parse bytes straight off the network and must never panic. A clean
// decode must also survive re-encoding (round-trip closure).

func FuzzDecodeRelayFrameRequest(f *testing.F) {
	f.Add([]byte{})
	for _, req := range relayRequests {
		f.Add(AppendRelayFrameRequest(nil, req))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRelayFrameRequest(data)
		if err != nil {
			return
		}
		back, err := DecodeRelayFrameRequest(AppendRelayFrameRequest(nil, req))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if back.LastRound != req.LastRound || len(back.Shadow) != len(req.Shadow) {
			t.Fatal("request round-trip not closed")
		}
	})
}

func FuzzDecodeRelayFrameReply(f *testing.F) {
	f.Add([]byte{})
	for _, rep := range relayReplies {
		f.Add(AppendRelayFrameReply(nil, rep))
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeRelayFrameReply(data)
		if err != nil {
			return
		}
		back, err := DecodeRelayFrameReply(AppendRelayFrameReply(nil, rep))
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if back.Full != rep.Full || back.Round != rep.Round || len(back.Dir) != len(rep.Dir) {
			t.Fatal("reply round-trip not closed")
		}
	})
}
