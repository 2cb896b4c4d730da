package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/vmath"
)

// Fuzz targets: the decoders parse bytes straight off the network, so
// they must never panic or over-allocate on malformed input. Run with
// `go test -fuzz FuzzDecodeClientUpdate ./internal/wire` to explore;
// the seed corpus below runs as part of the normal test suite.

func FuzzDecodeClientUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeClientUpdate(ClientUpdate{
		Head: vmath.Identity(),
		Hand: vmath.V3(1, 2, 3),
		Commands: []Command{
			{Kind: CmdGrab, Rake: 1, Grab: 1},
			{Kind: CmdAddRake, NumSeeds: 5, P0: vmath.V3(1, 0, 0)},
		},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeClientUpdate(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode without panicking and the
		// command list must respect the decoder's own bound.
		if len(u.Commands) > 4096 {
			t.Fatalf("decoder allowed %d commands", len(u.Commands))
		}
		_ = EncodeClientUpdate(u)
	})
}

// FuzzDecodeFrameReply is differential: on every input the skim and the
// full decode fail together or agree on everything but the points
// (checkSkimAgrees), and the full decode allocates in proportion to its
// input, never to a count the input claims.
func FuzzDecodeFrameReply(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFrameReply(FrameReply{
		Time:  TimeStatus{Current: 1, NumSteps: 10},
		Rakes: []RakeState{{ID: 1, NumSeeds: 3}},
		Geometry: []Geometry{{
			Rake:  1,
			Lines: [][]vmath.Vec3{{{X: 1}, {Y: 2}}},
		}},
	}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// Small on purpose: the engine minimizes what it finds interesting a
	// byte at a time, out of the same ten seconds.
	f.Add(EncodeFrameReply(FrameReply{
		Users: []UserState{{ID: 3, Head: vmath.Identity()}},
		Geometry: []Geometry{
			{Rake: 1, Lines: [][]vmath.Vec3{{}, awkwardPoints(rand.New(rand.NewSource(23)), 2)}},
			{Rake: 2},
		},
		Tools: &ToolsReply{
			Iso:   ToolState{Enabled: true, Value: 0.8, Holder: 3},
			Geoms: []ToolGeom{{Tool: ToolKindIso, Points: make([]vmath.Vec3, 3)}},
		},
	}))
	hostile := frameHeader(1)
	hostile.i32(1)
	hostile.u8(0)
	hostile.u32(1)
	hostile.u32(maxPoints)
	f.Add(append(hostile.buf, make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		grew := allocatedBy(func() { _, _ = DecodeFrameReply(data) })
		// A 4-byte line count becomes a 24-byte slice header, the widest
		// ratio in the format; the fuzzing engine's own goroutines
		// allocate too, hence the megabyte of slack.
		if limit := uint64(8*len(data)) + 1<<20; grew > limit {
			t.Fatalf("%d bytes of input, %d allocated", len(data), grew)
		}
		r, err := checkSkimAgrees(t, data)
		if err != nil {
			return
		}
		if r.TotalPoints() > maxPoints {
			t.Fatalf("decoder allowed %d points", r.TotalPoints())
		}
		_ = EncodeFrameReply(r)
	})
}

// FuzzDecodeFrameV2 feeds hostile bytes to the stateful codec-v2
// decoder. Seeds cover the nasty corners: truncated varints, reference
// records for never-sent rakes, extreme quantized coordinates, and
// hostile counts. Each input decodes twice on one decoder so the
// shadow-holding (second-frame) path is explored too.
func FuzzDecodeFrameV2(f *testing.F) {
	q := Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}
	frame := FrameReply{
		Time:  TimeStatus{Current: 1, NumSteps: 10},
		Users: []UserState{{ID: 3, Head: vmath.Identity()}},
		Rakes: []RakeState{{ID: 1, NumSeeds: 3}},
		Geometry: []Geometry{{
			Rake:  1,
			Lines: [][]vmath.Vec3{{vmath.V3(1, 2, 3), vmath.V3(9, 9, 9)}},
		}},
	}
	f.Add([]byte{})
	f.Add([]byte{CodecV2})
	enc := NewFrameEncoder()
	f.Add(enc.AppendFrame(nil, frame, frameRows(frame, q, 7))) // keyframe
	f.Add(enc.AppendFrame(nil, frame, frameRows(frame, q, 7))) // all-ref frame: on a fresh decoder, a never-sent reference
	// Truncated varint: a keyframe cut mid-count.
	key := NewFrameEncoder().AppendFrame(nil, frame, frameRows(frame, q, 7))
	f.Add(key[:len(key)-7])
	// Extreme quantized coordinates (0xFFFF everywhere past the header).
	hostile := append([]byte{}, key...)
	for i := len(key) - 12; i < len(key); i++ {
		hostile[i] = 0xff
	}
	f.Add(hostile)
	// Tool section seeds: a keyframe carrying all three tool states
	// plus inline iso/plane geometry, then the same frame again so the
	// tool shadow emits references (never-sent refs on a fresh
	// decoder), and a truncated/hostile variant of the tool bytes.
	toolFrame := frame
	toolFrame.Tools = &ToolsReply{
		Iso:   ToolState{Enabled: true, Value: 0.8, Holder: 3},
		Plane: ToolState{Enabled: true, Axis: 1, Value: 0.5},
		Geoms: []ToolGeom{
			{Tool: 1, Points: []vmath.Vec3{vmath.V3(1, 1, 1), vmath.V3(2, 2, 2), vmath.V3(3, 3, 3)}},
			{Tool: 2, Points: []vmath.Vec3{vmath.V3(4, 4, 4), vmath.V3(5, 5, 5)}},
		},
	}
	tenc := NewFrameEncoder()
	f.Add(tenc.AppendFrame(nil, toolFrame, frameRows(toolFrame, q, 7, 11, 12)))
	f.Add(tenc.AppendFrame(nil, toolFrame, frameRows(toolFrame, q, 7, 11, 12)))
	tkey := NewFrameEncoder().AppendFrame(nil, toolFrame, frameRows(toolFrame, q, 7, 11, 12))
	f.Add(tkey[:len(tkey)-5]) // tool segment cut mid-record
	// Hostile tool bytes: 0xFF over the trailing segment — huge vertex
	// counts, unknown tool kinds, out-of-range quantized points.
	thostile := append([]byte{}, tkey...)
	for i := len(tkey) - 16; i < len(tkey); i++ {
		thostile[i] = 0xff
	}
	f.Add(thostile)
	f.Add(aliasFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewFrameDecoder(q)
		for pass := 0; pass < 2; pass++ {
			r, err := d.Decode(data)
			if err != nil {
				return
			}
			if r.TotalPoints() > maxPoints {
				t.Fatalf("decoder allowed %d points", r.TotalPoints())
			}
			// Every decoded point must land inside the quantization box.
			for _, g := range r.Geometry {
				for _, line := range g.Lines {
					for _, p := range line {
						if p.X < q.Min.X || p.X > q.Max.X ||
							p.Y < q.Min.Y || p.Y > q.Max.Y ||
							p.Z < q.Min.Z || p.Z > q.Max.Z {
							t.Fatalf("decoded point %v escapes the box", p)
						}
					}
				}
			}
			// Tool geometry obeys the same point budget and box.
			if r.Tools != nil {
				if r.TotalPoints()+r.Tools.TotalPoints() > maxPoints {
					t.Fatalf("decoder allowed %d points with tools", r.TotalPoints()+r.Tools.TotalPoints())
				}
				for _, g := range r.Tools.Geoms {
					for _, p := range g.Points {
						if p.X < q.Min.X || p.X > q.Max.X ||
							p.Y < q.Min.Y || p.Y > q.Max.Y ||
							p.Z < q.Min.Z || p.Z > q.Max.Z {
							t.Fatalf("decoded tool point %v escapes the box", p)
						}
					}
				}
			}
		}
	})
}

func FuzzDecodeHelloReply(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHelloReply(CodecV2, DatasetInfo{NI: 64, NJ: 64, NK: 32, NumSteps: 800, DT: 0.05}))
	f.Fuzz(func(t *testing.T, data []byte) {
		codec, info, err := DecodeHelloReply(data)
		if err != nil {
			return
		}
		if again := EncodeHelloReply(codec, info); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("re-encoded reply %x is not a prefix of %x", again, data)
		}
	})
}
