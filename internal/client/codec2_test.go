// Codec v2 on the workstation: hello negotiation with fallback, delta
// decode, and the reconnect resync — a redial kills both sides of the
// delta shadow, so the first frame on the new connection must be a
// full keyframe.
package client

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// TestCodecV2Negotiated: a v2-wanting workstation against a v2 server
// speaks v2, and its decoded frames carry real geometry.
func TestCodecV2Negotiated(t *testing.T) {
	srv := buildServer(t, 4)
	a, b := net.Pipe()
	go srv.Dlib().ServeConn(b)
	c := dlib.NewClient(a)
	w, err := New(c, Config{FrameW: 64, FrameH: 64, Codec: wire.CodecV2})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Codec(); got != wire.CodecV2 {
		t.Fatalf("negotiated codec %d, want %d", got, wire.CodecV2)
	}
	user, err := vr.NewScriptedUser(7)
	if err != nil {
		t.Fatal(err)
	}
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: vmath.V3(-3, 0, 0), P1: vmath.V3(3, 0, 0),
		NumSeeds: 5, Tool: uint8(integrate.ToolStreamline)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatal(err)
	}
	latest, ok := w.Latest()
	if !ok || latest.TotalPoints() == 0 {
		t.Fatalf("v2 frame decoded no geometry: %+v", latest)
	}
	// Every decoded point must sit inside the dataset bounds — the
	// quantization box — or the dequantizer is broken.
	info := w.Info()
	for _, g := range latest.Geometry {
		for _, line := range g.Lines {
			for _, p := range line {
				if p.X < info.BoundsMin.X || p.X > info.BoundsMax.X ||
					p.Y < info.BoundsMin.Y || p.Y > info.BoundsMax.Y ||
					p.Z < info.BoundsMin.Z || p.Z > info.BoundsMax.Z {
					t.Fatalf("decoded point %v outside dataset bounds", p)
				}
			}
		}
	}
	// A steady follow-up frame rides the delta path: far smaller than
	// the keyframe.
	key := w.Stats().BytesDown
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatal(err)
	}
	steady := w.Stats().BytesDown - key
	if steady*4 > key {
		t.Fatalf("steady v2 frame %dB, not <1/4 of keyframe %dB", steady, key)
	}
}

// TestCodecV2FallsBackToV1 points a v2-wanting workstation at a server
// that predates vw.hello2 (a bare dlib server speaking only the v1
// procedures). The RemoteError from the unknown procedure must drop
// the session to v1, not kill it.
func TestCodecV2FallsBackToV1(t *testing.T) {
	old := dlib.NewServer()
	info := wire.DatasetInfo{NI: 4, NJ: 4, NK: 4, NumSteps: 2, DT: 0.1,
		BoundsMin: vmath.V3(0, 0, 0), BoundsMax: vmath.V3(1, 1, 1)}
	reply := wire.EncodeFrameReply(wire.FrameReply{
		Time:  wire.TimeStatus{NumSteps: 2},
		Rakes: []wire.RakeState{{ID: 1, NumSeeds: 2}},
		Geometry: []wire.Geometry{{Rake: 1,
			Lines: [][]vmath.Vec3{{vmath.V3(0, 0, 0), vmath.V3(1, 1, 1)}}}},
	})
	old.Register(wire.ProcHello, func(_ *dlib.Ctx, _ []byte) ([]byte, error) {
		return wire.EncodeDatasetInfo(info), nil
	})
	old.Register(wire.ProcWhoAmI, func(ctx *dlib.Ctx, _ []byte) ([]byte, error) {
		return binary.LittleEndian.AppendUint64(nil, uint64(ctx.Session.ID)), nil
	})
	old.Register(wire.ProcFrame, func(_ *dlib.Ctx, _ []byte) ([]byte, error) {
		return reply, nil
	})
	a, b := net.Pipe()
	go old.ServeConn(b)
	c := dlib.NewClient(a)
	w, err := New(c, Config{FrameW: 64, FrameH: 64, Codec: wire.CodecV2})
	if err != nil {
		t.Fatalf("fallback handshake failed: %v", err)
	}
	if got := w.Codec(); got != wire.CodecV1 {
		t.Fatalf("negotiated codec %d, want fallback to %d", got, wire.CodecV1)
	}
	if w.Info() != info {
		t.Fatalf("info %+v, want %+v", w.Info(), info)
	}
	user, err := vr.NewScriptedUser(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("v1 frame after fallback: %v", err)
	}
	latest, ok := w.Latest()
	if !ok || latest.TotalPoints() != 2 {
		t.Fatalf("v1 decode after fallback: %+v", latest)
	}
}

// corruptingCaller truncates the Nth successful ProcFrame reply before
// the workstation decodes it, simulating a payload mangled in transit:
// the call itself succeeds, the decode fails partway through.
type corruptingCaller struct {
	dlib.Caller
	frames    int
	corruptAt int
}

func (c *corruptingCaller) Call(proc string, payload []byte) ([]byte, error) {
	out, err := c.Caller.Call(proc, payload)
	if err == nil && proc == wire.ProcFrame {
		c.frames++
		if c.frames == c.corruptAt && len(out) > 8 {
			out = append([]byte(nil), out...)[:len(out)/2]
		}
	}
	return out, err
}

// TestCodecV2DecodeErrorResync is the regression for the corrupted
// delta shadow: a v2 frame that fails to decode partway used to leave
// the decoder's half-applied state in place, silently desyncing every
// later delta against the server's encoder. NetStep must now count the
// error, re-run the codec handshake on the SAME connection (no redial),
// and decode the next frame as a fresh keyframe.
func TestCodecV2DecodeErrorResync(t *testing.T) {
	srv := buildServer(t, 4)
	a, b := net.Pipe()
	go srv.Dlib().ServeConn(b)
	c := dlib.NewClient(a)
	w, err := New(c, Config{FrameW: 64, FrameH: 64, Codec: wire.CodecV2})
	if err != nil {
		t.Fatal(err)
	}
	w.c = &corruptingCaller{Caller: c, corruptAt: 2}
	id := w.sessionID()
	user, err := vr.NewScriptedUser(11)
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1: keyframe with real geometry.
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: vmath.V3(-3, 0, 0), P1: vmath.V3(3, 0, 0),
		NumSeeds: 5, Tool: uint8(integrate.ToolStreamline)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	before, ok := w.Latest()
	if !ok || before.TotalPoints() == 0 {
		t.Fatal("no geometry on the keyframe")
	}
	keyBytes := w.Stats().BytesDown

	// Frame 2 arrives truncated: the decode must fail and be counted,
	// and the last good state must survive for the render loop.
	if err := w.NetStep(user.Step()); err == nil {
		t.Fatal("truncated v2 frame decoded cleanly")
	}
	if got := w.Stats().NetErrors; got != 1 {
		t.Fatalf("NetErrors = %d after decode failure, want 1", got)
	}
	if latest, ok := w.Latest(); !ok || latest.TotalPoints() != before.TotalPoints() {
		t.Fatal("decode failure clobbered the last good state")
	}

	// Frame 3 rides the resynced stream: same connection, same session,
	// and the reply is a full keyframe (the server's encoder restarted),
	// not a delta built on the shadow the client lost.
	preResync := w.Stats().BytesDown
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 3 (post-resync): %v", err)
	}
	resyncBytes := w.Stats().BytesDown - preResync
	after, ok := w.Latest()
	if !ok || after.TotalPoints() != before.TotalPoints() {
		t.Fatalf("post-resync geometry: %d points, want %d",
			after.TotalPoints(), before.TotalPoints())
	}
	if w.sessionID() != id {
		t.Fatal("resync redialed: session id changed on a live connection")
	}
	if w.Codec() != wire.CodecV2 {
		t.Fatalf("codec after resync: %d", w.Codec())
	}
	// Keyframe-sized, not a few-byte reference delta. keyBytes also
	// covers the handshake-free frame-only exchange, so compare halves.
	if resyncBytes*4 < keyBytes {
		t.Fatalf("post-resync frame %dB looks like a delta (keyframe=%dB)", resyncBytes, keyBytes)
	}
	// And the stream is healthy again: one more steady frame decodes.
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 4: %v", err)
	}
}

// TestCodecV2RedialBetweenKeyframeAndDelta kills the connection in the
// narrowest window — after the keyframe flowed but before the first
// delta — so the client holds a populated shadow while the server's
// dies with the session. The redialed stream must restart from a
// keyframe rather than assume the shadow carried over.
func TestCodecV2RedialBetweenKeyframeAndDelta(t *testing.T) {
	srv := buildServer(t, 4)
	// v2 handshake = hello2 + whoami = 6 client-side read ops; the
	// keyframe is ops 7-9; the kill opens on the first delta's read.
	plan := &netsim.FaultPlan{Faults: []netsim.Fault{
		{Kind: netsim.FaultDropRead, AtOp: 10},
	}}
	dial, dials := faultyDialer(srv, 1, plan)
	w, err := NewResilient(dial, Config{FrameW: 64, FrameH: 64, Codec: wire.CodecV2},
		dlib.RedialOptions{
			BaseBackoff: time.Millisecond,
			CallTimeout: 100 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	user, err := vr.NewScriptedUser(42)
	if err != nil {
		t.Fatal(err)
	}
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: vmath.V3(-3, 0, 0), P1: vmath.V3(3, 0, 0),
		NumSeeds: 5, Tool: uint8(integrate.ToolStreamline)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("keyframe: %v", err)
	}
	before, ok := w.Latest()
	if !ok || before.TotalPoints() == 0 {
		t.Fatal("no geometry on the keyframe")
	}

	// The first delta never arrives.
	if err := w.NetStep(user.Step()); err == nil {
		t.Fatal("delta frame survived the kill")
	}

	// The next frame rides the new connection and must decode — a
	// fresh keyframe against a fresh decoder — with geometry intact.
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("post-redial frame: %v", err)
	}
	after, ok := w.Latest()
	if !ok || after.TotalPoints() != before.TotalPoints() {
		t.Fatalf("post-redial geometry: %d points, want %d",
			after.TotalPoints(), before.TotalPoints())
	}
	if w.Reconnects() == 0 || dials.Load() < 2 {
		t.Fatalf("no redial happened (reconnects=%d dials=%d)", w.Reconnects(), dials.Load())
	}
	if w.Codec() != wire.CodecV2 {
		t.Fatalf("codec lost across redial: %d", w.Codec())
	}
}

// TestCodecV2ReconnectKeyframeResync: mid-session the link partitions;
// the redial layer reconnects under a new session id, and because both
// delta shadows died with the connection, the first frame back must be
// a full keyframe — geometry intact, byte count keyframe-sized.
func TestCodecV2ReconnectKeyframeResync(t *testing.T) {
	srv := buildServer(t, 4)
	// v2 handshake = hello2 + whoami = 6 client-side read ops; frames
	// are 3 each. Frame 1 (ops 7-9) and frame 2 (ops 10-12) flow; the
	// partition opens on frame 3's first read (op 13).
	plan := &netsim.FaultPlan{Faults: []netsim.Fault{
		{Kind: netsim.FaultDropRead, AtOp: 13},
	}}
	dial, dials := faultyDialer(srv, 1, plan)
	w, err := NewResilient(dial, Config{FrameW: 64, FrameH: 64, Codec: wire.CodecV2},
		dlib.RedialOptions{
			BaseBackoff: time.Millisecond,
			CallTimeout: 100 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Codec(); got != wire.CodecV2 {
		t.Fatalf("negotiated codec %d, want %d", got, wire.CodecV2)
	}
	id1 := w.sessionID()
	user, err := vr.NewScriptedUser(42)
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1: add a rake (keyframe). Frame 2: steady delta frame.
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: vmath.V3(-3, 0, 0), P1: vmath.V3(3, 0, 0),
		NumSeeds: 5, Tool: uint8(integrate.ToolStreamline)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	keyBytes := w.Stats().BytesDown
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	steadyBytes := w.Stats().BytesDown - keyBytes
	before, ok := w.Latest()
	if !ok || before.TotalPoints() == 0 {
		t.Fatal("no geometry before the partition")
	}

	// Frame 3 hits the partition; the state and decoder survive.
	if err := w.NetStep(user.Step()); err == nil {
		t.Fatal("frame 3 succeeded through a partition")
	}

	// Frame 4 rides the redialed connection: new session, fresh delta
	// shadows on both ends, so the reply must decode as a keyframe.
	preResync := w.Stats().BytesDown
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 4 (post-redial): %v", err)
	}
	resyncBytes := w.Stats().BytesDown - preResync
	after, ok := w.Latest()
	if !ok || after.TotalPoints() != before.TotalPoints() {
		t.Fatalf("post-resync geometry: %d points, want %d",
			after.TotalPoints(), before.TotalPoints())
	}
	if w.Reconnects() == 0 || dials.Load() < 2 {
		t.Fatalf("no redial happened (reconnects=%d dials=%d)", w.Reconnects(), dials.Load())
	}
	if w.sessionID() == id1 {
		t.Fatal("session id survived the reconnect; server state should have died")
	}
	if w.Codec() != wire.CodecV2 {
		t.Fatalf("codec lost across reconnect: %d", w.Codec())
	}
	// The resync frame re-sent the rake inline: keyframe-sized, not a
	// few-byte reference frame.
	if resyncBytes <= steadyBytes*2 {
		t.Fatalf("post-reconnect frame %dB looks like a delta (steady=%dB); want a keyframe",
			resyncBytes, steadyBytes)
	}
}
