package relay

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// helloV2 is every fake upstream's hello2 handler: codec v2 over the
// test quantizer's bounds.
func helloV2(*dlib.Ctx, []byte) ([]byte, error) {
	return wire.EncodeHelloReply(wire.CodecV2, wire.DatasetInfo{
		NumSteps: 4, BoundsMin: testQuant.Min, BoundsMax: testQuant.Max,
	}), nil
}

// pipeTo dials d over an in-memory link.
func pipeTo(d *dlib.Server, l netsim.Link) dlib.DialFunc {
	return func() (net.Conn, error) {
		client, server := netsim.Pipe(l)
		go d.ServeConn(server)
		return client, nil
	}
}

// fakeUpstream is a dlib server that negotiates codec v2 and answers
// every vw.framerelay call with a full reply for a fresh round whose
// directory carries only the keys in dir.
func fakeUpstream(dir ...int32) *dlib.Server {
	d := dlib.NewServer()
	d.Register(wire.ProcHello2, helloV2)
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
	r, err := New(Config{Upstreams: []dlib.DialFunc{pipeTo(up, netsim.Link{})}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	conn, err := pipeTo(r.Dlib(), netsim.Link{})()
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

// movingRound is round n of the moving upstream: one rake whose every
// point depends on n, so two rounds never share a byte run long enough
// to hide a torn or misattributed reply, under a sequence number that
// changes with it.
func movingRound(n uint64) (wire.FrameReply, wire.Segment) {
	g := wire.Geometry{Rake: 1}
	for l := 0; l < 4; l++ {
		line := make([]vmath.Vec3, 128)
		for p := range line {
			line[p] = vmath.V3(float32(n%10), float32(l), 10*float32(p)/float32(len(line)))
		}
		g.Lines = append(g.Lines, line)
	}
	r := wire.FrameReply{
		Round: n, Time: wire.TimeStatus{NumSteps: 4},
		Rakes:    []wire.RakeState{{ID: 1, NumSeeds: 4}},
		Geometry: []wire.Geometry{g},
	}
	return r, wire.Segment{Key: 1, Seq: n, Bytes: wire.AppendGeomV2(nil, g, testQuant)}
}

// movingUpstream serves movingRound(n), advancing n on every exchange
// whose update carries a command and answering a marker when the caller
// already holds round n — the origin's rules, minus the origin.
func movingUpstream() *dlib.Server {
	d := dlib.NewServer()
	d.Register(wire.ProcHello2, helloV2)
	round := uint64(1) // handlers run under serial dispatch
	d.Register(wire.ProcFrameRelay, func(_ *dlib.Ctx, payload []byte) ([]byte, error) {
		req, err := wire.DecodeRelayFrameRequest(payload)
		if err != nil {
			return nil, err
		}
		u, err := wire.DecodeClientUpdate(req.Update)
		if err != nil {
			return nil, err
		}
		if len(u.Commands) > 0 {
			round++
		}
		if req.LastRound == round {
			return wire.AppendRelayMarker(nil, round), nil
		}
		r, seg := movingRound(round)
		rep := wire.RelayFrameReply{Full: true, Round: round, Frame: wire.EncodeFrameReply(r)}
		if req.WantSegs {
			rep.HasDir, rep.Dir = true, []wire.Segment{seg}
		}
		return wire.AppendRelayFrameReply(nil, rep), nil
	})
	return d
}

// TestRelayRepliesSurviveRoundAdvance pins the reply-buffer contract
// the relay meets without a copy (dlib.Handler): a v1 session reads its
// frames through a slow link — each reply sits in the writer, outside
// the dispatch lock, while a second session's commands advance the
// round and replace upCache.frame under it — beside a v2 session served
// from its own st.buf. Every reply must equal, byte for byte, the round
// it was answered from; `make relay` runs this under the race detector,
// which is what would see a cached buffer rewritten in place.
func TestRelayRepliesSurviveRoundAdvance(t *testing.T) {
	r, err := New(Config{Upstreams: []dlib.DialFunc{pipeTo(movingUpstream(), netsim.Link{})}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	dial := func(l netsim.Link) *dlib.Client {
		conn, _ := pipeTo(r.Dlib(), l)() // an in-memory pipe cannot fail to dial
		c := dlib.NewClient(conn)
		t.Cleanup(func() { c.Close() })
		return c
	}
	command := wire.EncodeClientUpdate(wire.ClientUpdate{
		Head: vmath.Identity(), Commands: []wire.Command{{Kind: wire.CmdSetPlaying, Flag: 1}},
	})

	// The mover: commands as fast as the relay takes them, until the
	// watchers are done.
	stop, moverDone := make(chan struct{}), make(chan struct{})
	mover := dial(netsim.Link{})
	go func() {
		defer close(moverDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := mover.Call(wire.ProcFrame, command); err != nil {
				t.Errorf("mover: %v", err)
				return
			}
		}
	}()

	var watchers sync.WaitGroup
	watchers.Add(2)
	// The slow v1 watcher: every write toward it waits out the link
	// latency with the reply buffer in hand.
	go func() {
		defer watchers.Done()
		c := dial(netsim.Link{Latency: 2 * time.Millisecond})
		rounds := map[uint64]bool{}
		for i := 0; i < 20; i++ {
			raw, err := c.Call(wire.ProcFrame, emptyUpdate)
			if err != nil {
				t.Errorf("v1 frame %d: %v", i, err)
				return
			}
			got, err := wire.DecodeFrameReply(raw)
			if err != nil {
				t.Errorf("v1 frame %d: %v", i, err)
				return
			}
			want, _ := movingRound(got.Round)
			if !bytes.Equal(raw, wire.EncodeFrameReply(want)) {
				t.Errorf("v1 frame %d: bytes are not round %d's", i, got.Round)
			}
			rounds[got.Round] = true
		}
		if len(rounds) < 2 {
			t.Errorf("v1 watcher saw %d distinct rounds; the round never advanced under a reply", len(rounds))
		}
	}()
	// The v2 watcher: a mirror encoder fed the rounds this session was
	// answered from reproduces the relay's bytes, references included.
	go func() {
		defer watchers.Done()
		c := dial(netsim.Link{Latency: time.Millisecond})
		if _, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2)); err != nil {
			t.Errorf("v2 hello: %v", err)
			return
		}
		dec, mirror := wire.NewFrameDecoder(testQuant), wire.NewFrameEncoder(testQuant)
		for i := 0; i < 20; i++ {
			raw, err := c.Call(wire.ProcFrame, emptyUpdate)
			if err != nil {
				t.Errorf("v2 frame %d: %v", i, err)
				return
			}
			got, err := dec.Decode(raw)
			if err != nil {
				t.Errorf("v2 frame %d: %v", i, err)
				return
			}
			want, seg := movingRound(got.Round)
			meta, err := wire.DecodeFrameReply(wire.EncodeFrameReply(want))
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(raw, mirror.AppendFrame(nil, meta, []wire.Segment{seg})) {
				t.Errorf("v2 frame %d: bytes are not round %d's", i, got.Round)
			}
		}
	}()
	watchers.Wait()
	close(stop)
	<-moverDone
}
