package server

import (
	"math"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// checkEnvInvariants asserts the shared environment is still sane after
// hostile input: every surviving rake has finite endpoints, a seed count
// inside the server's clamp, and a known tool. A violation here means a
// rejected-on-paper payload leaked into shared state, where it would
// poison every connected workstation's next frame.
func checkEnvInvariants(t *testing.T, s *Server) {
	t.Helper()
	for _, snap := range s.Env().Rakes() {
		r := snap.Rake
		if !finiteVec3(r.P0) || !finiteVec3(r.P1) {
			t.Fatalf("rake %d has non-finite endpoints: %v %v", r.ID, r.P0, r.P1)
		}
		if r.NumSeeds < 1 || r.NumSeeds > s.cfg.MaxSeedsPerRake {
			t.Fatalf("rake %d seeds %d outside [1,%d]", r.ID, r.NumSeeds, s.cfg.MaxSeedsPerRake)
		}
		if !validTool(uint8(r.Tool)) {
			t.Fatalf("rake %d has unknown tool %d", r.ID, r.Tool)
		}
	}
}

// fuzzServer builds a small steady server plus a direct-call context.
// The frame-budget governor runs hot (tiny budget, pre-calibrated on a
// ManualClock so plans are deterministic): hostile payloads reach the
// shed planner and the degraded-byte encoding, not just the
// full-fidelity path.
func fuzzServer(t *testing.T) (*Server, *dlib.Ctx) {
	t.Helper()
	s, err := New(Config{
		Store:           testDataset(t, 2),
		MaxSeedsPerRake: 64,
		Budget:          time.Millisecond,
		Clock:           netsim.NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.gov.unitNanos = 500
	t.Cleanup(func() { s.Dlib().Close() })
	return s, &dlib.Ctx{Session: &dlib.Session{ID: 1}}
}

// frameNoPanic runs one direct handleFrame call; a returned error is a
// legitimate outcome (malformed payload), a panic is the bug.
func frameNoPanic(t *testing.T, s *Server, ctx *dlib.Ctx, payload []byte) {
	t.Helper()
	out, err := s.handleFrame(ctx, payload)
	if err != nil {
		return
	}
	if _, err := wire.DecodeFrameReply(out); err != nil {
		t.Fatalf("accepted frame produced undecodable reply: %v", err)
	}
}

// FuzzHandleFrame throws raw bytes at the frame procedure — the full
// decode/apply/recompute/encode path. Whatever arrives, the server must
// not panic, must keep the environment version monotonic, and must keep
// every accepted rake within validated bounds.
func FuzzHandleFrame(f *testing.F) {
	nan := math.Float32frombits(0x7fc00000)
	inf := math.Float32frombits(0x7f800000)
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Head: vmath.Identity(), Hand: vmath.V3(1, 2, 3)}))
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake, P0: vmath.V3(1, 4, 4), P1: vmath.V3(1, 8, 4), NumSeeds: 8,
	}}}))
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Hand: vmath.V3(nan, 0, 0)}))
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake, P0: vmath.V3(inf, 4, 4), P1: vmath.V3(1, 8, 4), NumSeeds: 8,
	}}}))
	// "Negative" seeds: NumSeeds is unsigned on the wire, so hostility
	// arrives as a huge count that must clamp, not allocate.
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake, P0: vmath.V3(1, 4, 4), P1: vmath.V3(1, 8, 4),
		NumSeeds: 0xFFFFFFFF,
	}}}))
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake, P0: vmath.V3(1, 4, 4), P1: vmath.V3(1, 8, 4),
		NumSeeds: 8, Tool: 200,
	}}}))
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetSpeed, Value: nan},
		{Kind: wire.CmdSeek, Value: inf},
		{Kind: 99, Rake: -1},
	}}))
	// Overload seed: a wide rake under playback pushes the governor
	// over its budget, so the fuzzer explores the shed planner and the
	// non-zero Degraded byte from the first generation on.
	f.Add(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdAddRake, P0: vmath.V3(1, 2, 2), P1: vmath.V3(1, 13, 6), NumSeeds: 64},
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}}))
	f.Add([]byte{})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, ctx := fuzzServer(t)
		// A benign frame first, so the fuzz payload attacks a live round.
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{
			Head: vmath.Identity(), Hand: vmath.V3(1, 0, 0),
		}))
		v0 := s.Env().Version()
		frameNoPanic(t, s, ctx, data)
		if v := s.Env().Version(); v < v0 {
			t.Fatalf("environment version went backwards: %d -> %d", v0, v)
		}
		checkEnvInvariants(t, s)
		// The server must still serve clean frames afterwards.
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{
			Head: vmath.Identity(), Hand: vmath.V3(2, 0, 0),
		}))
	})
}

// FuzzApplyCommand drives the command switch with arbitrary decoded
// values — the post-decoder surface, where NaN floats and unknown
// enums arrive as perfectly well-formed wire frames.
func FuzzApplyCommand(f *testing.F) {
	nan := math.Float32frombits(0x7fc00000)
	f.Add(uint8(wire.CmdAddRake), int32(0), uint32(8), uint8(0), uint8(0),
		float32(1), float32(4), float32(4), float32(1), float32(8), float32(4), float32(0))
	f.Add(uint8(wire.CmdAddRake), int32(0), uint32(0xFFFFFFFF), uint8(200), uint8(0),
		nan, float32(4), float32(4), float32(1), float32(8), float32(4), float32(0))
	f.Add(uint8(wire.CmdMove), int32(1), uint32(0), uint8(0), uint8(1),
		nan, nan, nan, float32(0), float32(0), float32(0), float32(0))
	f.Add(uint8(wire.CmdSetSeeds), int32(1), uint32(1<<31), uint8(0), uint8(0),
		float32(0), float32(0), float32(0), float32(0), float32(0), float32(0), float32(0))
	f.Add(uint8(wire.CmdSeek), int32(0), uint32(0), uint8(0), uint8(0),
		float32(0), float32(0), float32(0), float32(0), float32(0), float32(0), nan)

	f.Fuzz(func(t *testing.T, kind uint8, rake int32, numSeeds uint32, tool, grab uint8,
		x0, y0, z0, x1, y1, z1, value float32) {
		s, ctx := fuzzServer(t)
		// Seed one legitimate rake so mutation commands have a target.
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{
			Commands: []wire.Command{{
				Kind: wire.CmdAddRake, P0: vmath.V3(1, 4, 4), P1: vmath.V3(1, 8, 4), NumSeeds: 4,
			}},
		}))
		v0 := s.Env().Version()
		s.applyCommand(1, wire.Command{
			Kind: wire.CmdKind(kind), Rake: rake,
			P0: vmath.V3(x0, y0, z0), P1: vmath.V3(x1, y1, z1),
			Pos:      vmath.V3(x0, y0, z0),
			NumSeeds: numSeeds, Tool: tool, Grab: grab, Value: value,
			Flag: uint8(numSeeds & 1),
		})
		if v := s.Env().Version(); v < v0 {
			t.Fatalf("environment version went backwards: %d -> %d", v0, v)
		}
		checkEnvInvariants(t, s)
		// And a full frame still computes over whatever state resulted.
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{
			Head: vmath.Identity(), Hand: vmath.V3(2, 0, 0),
		}))
	})
}
