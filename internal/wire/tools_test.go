package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/vmath"
)

func sampleToolsReply() *ToolsReply {
	return &ToolsReply{
		Iso:    ToolState{Enabled: true, Value: 0.8, Holder: 3},
		Plane:  ToolState{Enabled: true, Axis: 2, Value: 0.25, Holder: -1},
		Vortex: ToolState{Enabled: false, Value: 0.01},
		Geoms: []ToolGeom{
			{Tool: 1, Points: []vmath.Vec3{
				vmath.V3(1, 2, 3), vmath.V3(4, 5, 6), vmath.V3(7, 8, 9),
			}},
			{Tool: 2, Points: []vmath.Vec3{vmath.V3(0.5, 0.5, 0.5), vmath.V3(2, 2, 2)}},
		},
	}
}

// TestToolSectionV1RoundTrip: the optional trailing tool section
// round-trips through the v1 frame codec — states, holders (including
// negative ids), and per-tool geometry — while a tool-less frame stays
// byte-identical to the pre-tool encoding.
func TestToolSectionV1RoundTrip(t *testing.T) {
	base := FrameReply{
		Time:  TimeStatus{Current: 1, NumSteps: 8},
		Users: []UserState{{ID: 3, Head: vmath.Identity()}},
	}
	bare := EncodeFrameReply(base)

	withTools := base
	withTools.Tools = sampleToolsReply()
	enc := EncodeFrameReply(withTools)
	if !bytes.Equal(enc[:len(bare)], bare) {
		t.Fatal("tool section is not a pure suffix of the legacy frame")
	}
	dec, err := DecodeFrameReply(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tools == nil {
		t.Fatal("tool section lost in round trip")
	}
	got, want := dec.Tools, withTools.Tools
	if got.Iso != want.Iso || got.Plane != want.Plane || got.Vortex != want.Vortex {
		t.Fatalf("states: %+v, want %+v", got, want)
	}
	if len(got.Geoms) != 2 || got.Geoms[0].Tool != 1 || got.Geoms[1].Tool != 2 {
		t.Fatalf("geoms: %+v", got.Geoms)
	}
	for i := range want.Geoms {
		if len(got.Geoms[i].Points) != len(want.Geoms[i].Points) {
			t.Fatalf("geom %d: %d points, want %d", i, len(got.Geoms[i].Points), len(want.Geoms[i].Points))
		}
		for p := range want.Geoms[i].Points {
			if got.Geoms[i].Points[p] != want.Geoms[i].Points[p] {
				t.Fatalf("geom %d point %d: %v, want %v", i, p, got.Geoms[i].Points[p], want.Geoms[i].Points[p])
			}
		}
	}
	if got.TotalPoints() != 5 {
		t.Fatalf("TotalPoints = %d", got.TotalPoints())
	}
	// A frame without tools decodes with a nil section.
	decBare, err := DecodeFrameReply(bare)
	if err != nil {
		t.Fatal(err)
	}
	if decBare.Tools != nil {
		t.Fatal("legacy frame grew a tool section")
	}
}

// TestToolSectionV1Hostile: truncations, bad section versions, absurd
// counts, and trailing garbage must all error — never panic, never
// allocate unbounded memory.
func TestToolSectionV1Hostile(t *testing.T) {
	frame := FrameReply{Time: TimeStatus{NumSteps: 4}}
	frame.Tools = sampleToolsReply()
	enc := EncodeFrameReply(frame)
	bare := EncodeFrameReply(FrameReply{Time: TimeStatus{NumSteps: 4}})

	// Every truncation of the tool section fails cleanly.
	for cut := len(bare) + 1; cut < len(enc); cut++ {
		if _, err := DecodeFrameReply(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Wrong section version byte.
	bad := append([]byte{}, enc...)
	bad[len(bare)] = 99
	if _, err := DecodeFrameReply(bad); err == nil || !strings.Contains(err.Error(), "tool section version") {
		t.Fatalf("bad section version: %v", err)
	}
	// Hostile geometry count: 0xFFFFFFFF geoms.
	hostile := append([]byte{}, enc[:len(bare)+1+3*14]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff)
	if _, err := DecodeFrameReply(hostile); err == nil {
		t.Fatal("absurd geom count accepted")
	}
	// Hostile point count inside one geom record.
	hostile = append([]byte{}, enc[:len(bare)+1+3*14]...)
	hostile = append(hostile, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff)
	if _, err := DecodeFrameReply(hostile); err == nil {
		t.Fatal("absurd point count accepted")
	}
	// Trailing garbage after a complete section.
	if _, err := DecodeFrameReply(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestToolGeomV2ShadowDelta: the v2 tool shadow works like the rake
// shadow — first send inline, repeat sends a reference, a version bump
// re-inlines, and a reference to a never-sent tool errors on a fresh
// decoder.
func TestToolGeomV2ShadowDelta(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	frame := FrameReply{
		Time:  TimeStatus{Current: 1, NumSteps: 8},
		Users: []UserState{{ID: 1, Head: vmath.Identity()}},
		Tools: sampleToolsReply(),
	}
	enc := NewFrameEncoder()
	dec := NewFrameDecoder(q)

	first := enc.AppendFrame(nil, frame, frameRows(frame, q, 5, 6))
	if enc.LastInline != 2 || enc.LastRef != 0 {
		t.Fatalf("first frame: inline=%d ref=%d", enc.LastInline, enc.LastRef)
	}
	r1, err := dec.Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tools == nil || r1.Tools.TotalPoints() != 5 {
		t.Fatalf("first decode: %+v", r1.Tools)
	}

	// Same sequence numbers: both tool geoms go by reference, and the
	// decoder replays its shadow copies.
	second := enc.AppendFrame(nil, frame, frameRows(frame, q, 5, 6))
	if enc.LastRef != 2 || enc.LastInline != 0 {
		t.Fatalf("second frame: inline=%d ref=%d", enc.LastInline, enc.LastRef)
	}
	if len(second) >= len(first) {
		t.Fatalf("reference frame (%d bytes) not smaller than keyframe (%d)", len(second), len(first))
	}
	r2, err := dec.Decode(second)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tools.TotalPoints() != r1.Tools.TotalPoints() {
		t.Fatalf("reference decode lost points: %d vs %d", r2.Tools.TotalPoints(), r1.Tools.TotalPoints())
	}
	for i := range r1.Tools.Geoms {
		for p := range r1.Tools.Geoms[i].Points {
			if r2.Tools.Geoms[i].Points[p] != r1.Tools.Geoms[i].Points[p] {
				t.Fatalf("geom %d point %d differs across the reference", i, p)
			}
		}
	}

	// Bump one tool's sequence: that geom re-inlines, the other stays a
	// reference.
	third := enc.AppendFrame(nil, frame, frameRows(frame, q, 7, 6))
	if enc.LastInline != 1 || enc.LastRef != 1 {
		t.Fatalf("third frame: inline=%d ref=%d", enc.LastInline, enc.LastRef)
	}
	if _, err := dec.Decode(third); err != nil {
		t.Fatal(err)
	}

	// A fresh decoder sees the all-reference frame as a protocol error
	// (never-sent shadow), not a silent empty.
	if _, err := NewFrameDecoder(q).Decode(second); err == nil {
		t.Fatal("fresh decoder accepted a reference to a never-sent tool")
	}
}

// TestToolGeomV2RoundTrip: quantized tool points survive encode/decode
// within the quantizer's cell size.
func TestToolGeomV2RoundTrip(t *testing.T) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	g := ToolGeom{Tool: 3, Points: []vmath.Vec3{
		vmath.V3(0, 0, 0), vmath.V3(10, 10, 10), vmath.V3(3.14, 2.72, 1.41),
	}}
	seg := AppendToolGeomV2(nil, g, q)
	got, pts, err := decodeToolGeomV2(seg, q, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != 3 || pts != 3 || len(got.Points) != 3 {
		t.Fatalf("decoded tool=%d pts=%d", got.Tool, pts)
	}
	step := 10.0 / 65535
	for i, p := range got.Points {
		d := p.Sub(g.Points[i])
		if absf32(d.X) > float32(2*step) || absf32(d.Y) > float32(2*step) || absf32(d.Z) > float32(2*step) {
			t.Fatalf("point %d error %v exceeds quantization step", i, d)
		}
	}
	// Point budget enforcement.
	if _, _, err := decodeToolGeomV2(seg, q, 2); err == nil {
		t.Fatal("budget-exceeding tool geom accepted")
	}
}

func absf32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
