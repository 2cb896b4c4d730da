package relay

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dlib"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// The relay trusts its upstream for bytes, not for consistency: a full
// reply whose frame lists a rake or a tool that its segment directory
// omits must fail the downstream call on both serving paths — the
// workstation path (handleFrame) and the chained-relay path
// (handleFrameRelay) — instead of forwarding a sequence-0, empty
// segment to whoever is below.

var testQuant = wire.Quantizer{Min: vmath.V3(0, 0, 0), Max: vmath.V3(10, 10, 10)}

// testRound is the round every fake upstream serves: one rake and the
// isosurface tool, both with geometry.
func testRound(round uint64) wire.FrameReply {
	return wire.FrameReply{
		Round:    round,
		Time:     wire.TimeStatus{NumSteps: 4},
		Rakes:    []wire.RakeState{{ID: 1, NumSeeds: 1}},
		Geometry: []wire.Geometry{{Rake: 1, Lines: [][]vmath.Vec3{{vmath.V3(1, 2, 3), vmath.V3(4, 5, 6)}}}},
		Tools: &wire.ToolsReply{
			Iso: wire.ToolState{Enabled: true, Value: 0.5},
			Geoms: []wire.ToolGeom{{Tool: wire.ToolKindIso, Points: []vmath.Vec3{
				vmath.V3(1, 1, 1), vmath.V3(2, 2, 2), vmath.V3(3, 3, 3),
			}}},
		},
	}
}

// fakeUpstream is a dlib server that negotiates codec v2 and answers
// every vw.framerelay call with a full reply for a fresh round whose
// directory carries only the keys in dir.
func fakeUpstream(dir ...int32) *dlib.Server {
	d := dlib.NewServer()
	d.Register(wire.ProcHello2, func(*dlib.Ctx, []byte) ([]byte, error) {
		return wire.EncodeHelloReply(wire.CodecV2, wire.DatasetInfo{
			NumSteps: 4, BoundsMin: testQuant.Min, BoundsMax: testQuant.Max,
		}), nil
	})
	var round atomic.Uint64
	d.Register(wire.ProcFrameRelay, func(_ *dlib.Ctx, payload []byte) ([]byte, error) {
		if _, err := wire.DecodeRelayFrameRequest(payload); err != nil {
			return nil, err
		}
		r := testRound(round.Add(1))
		rep := wire.RelayFrameReply{Full: true, Round: r.Round, Frame: wire.EncodeFrameReply(r), HasDir: true}
		for _, key := range dir {
			row := wire.Segment{Key: key, Seq: uint64(10 + key)}
			if key > 0 {
				row.Bytes = wire.AppendGeomV2(nil, r.Geometry[0], testQuant)
			} else {
				row.Bytes = wire.AppendToolGeomV2(nil, r.Tools.Geoms[0], testQuant)
			}
			rep.Dir = append(rep.Dir, row)
		}
		return wire.AppendRelayFrameReply(nil, rep), nil
	})
	return d
}

// dialRelay builds a relay over the fake upstream and returns a client
// session on it.
func dialRelay(t *testing.T, up *dlib.Server) *dlib.Client {
	t.Helper()
	serve := func(d *dlib.Server) dlib.DialFunc {
		return func() (net.Conn, error) {
			client, server := netsim.Pipe(netsim.Link{})
			go d.ServeConn(server)
			return client, nil
		}
	}
	r, err := New(Config{Upstreams: []dlib.DialFunc{serve(up)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	conn, err := serve(r.Dlib())()
	if err != nil {
		t.Fatal(err)
	}
	c := dlib.NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

var emptyUpdate = wire.EncodeClientUpdate(wire.ClientUpdate{Head: vmath.Identity()})

// workstationFrame runs hello2 + one frame as a codec-v2 workstation.
func workstationFrame(t *testing.T, c *dlib.Client) ([]byte, error) {
	t.Helper()
	if _, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2)); err != nil {
		t.Fatal(err)
	}
	return c.Call(wire.ProcFrame, emptyUpdate)
}

// chainedFrame runs one frame exchange as a child relay with an empty
// cache that wants the segment directory.
func chainedFrame(c *dlib.Client) ([]byte, error) {
	return c.Call(wire.ProcFrameRelay, wire.AppendRelayFrameRequest(nil,
		wire.RelayFrameRequest{WantSegs: true, Update: emptyUpdate}))
}

func TestRelayRejectsDirectoryMissingListedSource(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  []int32
	}{
		{"rake omitted", []int32{-wire.ToolKindIso}},
		{"tool omitted", []int32{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := workstationFrame(t, dialRelay(t, fakeUpstream(tc.dir...))); err == nil ||
				!strings.Contains(err.Error(), "no segment") {
				t.Errorf("workstation path: err = %v, want a missing-segment error", err)
			}
			if raw, err := chainedFrame(dialRelay(t, fakeUpstream(tc.dir...))); err == nil ||
				!strings.Contains(err.Error(), "no segment") {
				t.Errorf("chained path: err = %v (reply %d bytes), want a missing-segment error", err, len(raw))
			}
		})
	}
}

func TestRelayServesWellFormedRound(t *testing.T) {
	want := testRound(1)

	raw, err := workstationFrame(t, dialRelay(t, fakeUpstream(1, -wire.ToolKindIso)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.NewFrameDecoder(testQuant).Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.TotalPoints() != want.TotalPoints() ||
		got.Tools == nil || got.Tools.TotalPoints() != want.Tools.TotalPoints() {
		t.Errorf("workstation frame: round %d, %d rake points, tools %+v", got.Round, got.TotalPoints(), got.Tools)
	}

	raw, err = chainedFrame(dialRelay(t, fakeUpstream(1, -wire.ToolKindIso)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeRelayFrameReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full || rep.Round != want.Round || len(rep.Dir) != 2 {
		t.Fatalf("chained reply: full=%v round=%d dir=%d rows", rep.Full, rep.Round, len(rep.Dir))
	}
	for i, key := range []int32{1, -wire.ToolKindIso} {
		if row := rep.Dir[i]; row.Key != key || row.Seq != uint64(10+key) || row.Bytes == nil {
			t.Errorf("chained directory row %d = key %d seq %d (%d bytes), want key %d inline",
				i, row.Key, row.Seq, len(row.Bytes), key)
		}
	}
}
