package relay

import (
	"bytes"
	"fmt"
	"net"
	"slices"
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

// newRelay builds a relay over the fake upstream.
func newRelay(t *testing.T, up *dlib.Server) *Relay {
	t.Helper()
	r, err := New(Config{Upstreams: []dlib.DialFunc{pipeTo(up, netsim.Link{})}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// dial returns a new client session on r.
func dial(t *testing.T, r *Relay) *dlib.Client {
	t.Helper()
	conn, err := pipeTo(r.Dlib(), netsim.Link{})()
	if err != nil {
		t.Fatal(err)
	}
	c := dlib.NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

// dialRelay builds a relay over the fake upstream and returns a client
// session on it.
func dialRelay(t *testing.T, up *dlib.Server) *dlib.Client {
	t.Helper()
	return dial(t, newRelay(t, up))
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
		dec, mirror := wire.NewFrameDecoder(testQuant), wire.NewFrameEncoder()
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

// TestRelaySkimsTheRound: the relay forwards the round's bytes and keeps
// of them only what a skim reads. Its cached meta names every source and
// holds no point, so every cached row carries its segment bytes — there
// is nothing to encode it afresh from — while a chained child may still
// be sent the same row as a reference.
func TestRelaySkimsTheRound(t *testing.T) {
	r := newRelay(t, fakeUpstream(1, -wire.ToolKindIso))
	if _, err := workstationFrame(t, dial(t, r)); err != nil {
		t.Fatal(err)
	}
	c := r.caches[0]
	want := testRound(1)
	if c.frame == nil || c.meta.Round != 1 || len(c.meta.Rakes) != 1 || c.meta.Tools == nil || c.meta.Tools.Iso != want.Tools.Iso {
		t.Fatalf("cached meta = %+v", c.meta)
	}
	if g := c.meta.Geometry; len(g) != 1 || g[0].Rake != 1 || g[0].Lines != nil {
		t.Errorf("cached geometry = %+v, want rake 1 and no lines", g)
	}
	if g := c.meta.Tools.Geoms; len(g) != 1 || g[0].Tool != wire.ToolKindIso || g[0].Points != nil {
		t.Errorf("cached tool geometry = %+v, want the isosurface and no points", g)
	}

	if !c.haveRows || len(c.rows) != 2 {
		t.Fatalf("cached rows: %d (have %v), want 2", len(c.rows), c.haveRows)
	}
	for i, key := range []int32{1, -wire.ToolKindIso} {
		if row := c.rows[i]; row.Key != key || row.Bytes == nil {
			t.Errorf("cached row %d = key %d (%d bytes), want key %d with its segment", i, row.Key, len(row.Bytes), key)
		}
	}
	rows := slices.Clone(c.rows)
	child := &wire.RelayFrameRequest{Shadow: []wire.Segment{{Key: 1, Seq: c.rows[0].Seq}}}
	child.Directory(rows)
	if rows[0].Bytes != nil || rows[1].Bytes == nil {
		t.Errorf("directory for a child holding (1, %d): %+v", c.rows[0].Seq, rows)
	}
	if c.rows[0].Bytes == nil {
		t.Error("the child's directory took the cached row's bytes")
	}
}

// TestRelayRefusedReplyLeavesCacheWhole: the second full reply's
// directory is bad — it references a (key, seq) the relay never held,
// omits a source its frame lists, or lists the sources out of order.
// The call fails, and nothing of that reply may have been installed:
// the next exchange still announces round 1 upstream, and on its marker
// a v1 session is served round 1's bytes and the v2 session round 1's
// assembly, as references to what it holds.
func TestRelayRefusedReplyLeavesCacheWhole(t *testing.T) {
	round1, round2 := testRound(1), testRound(2)
	rows1 := []wire.Segment{
		{Key: 1, Seq: 11, Bytes: wire.AppendGeomV2(nil, round1.Geometry[0], testQuant)},
		{Key: -wire.ToolKindIso, Seq: 9, Bytes: wire.AppendToolGeomV2(nil, round1.Tools.Geoms[0], testQuant)},
	}
	for _, tc := range []struct {
		name, err string
		dir       []wire.Segment
	}{
		{"unheld reference", "not in cache", []wire.Segment{{Key: 1, Seq: 99}, rows1[1]}},
		{"omitted tool row", "no segment", []wire.Segment{{Key: 1, Seq: 12, Bytes: rows1[0].Bytes}}},
		{"swapped rows", "no segment", []wire.Segment{rows1[1], rows1[0]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			up := dlib.NewServer()
			up.Register(wire.ProcHello2, helloV2)
			var calls int // handlers run under serial dispatch
			var lastRounds []uint64
			up.Register(wire.ProcFrameRelay, func(_ *dlib.Ctx, payload []byte) ([]byte, error) {
				req, err := wire.DecodeRelayFrameRequest(payload)
				if err != nil {
					return nil, err
				}
				lastRounds = append(lastRounds, req.LastRound)
				calls++
				switch calls {
				case 1:
					return wire.AppendRelayFrameReply(nil, wire.RelayFrameReply{
						Full: true, Round: 1, Frame: wire.EncodeFrameReply(round1), HasDir: true, Dir: rows1,
					}), nil
				case 2:
					return wire.AppendRelayFrameReply(nil, wire.RelayFrameReply{
						Full: true, Round: 2, Frame: wire.EncodeFrameReply(round2), HasDir: true, Dir: tc.dir,
					}), nil
				}
				return wire.AppendRelayMarker(nil, req.LastRound), nil // "what you hold is current"
			})

			r := newRelay(t, up)
			v2, v1 := dial(t, r), dial(t, r)
			key, err := workstationFrame(t, v2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v2.Call(wire.ProcFrame, emptyUpdate); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("refused reply: err = %v, want %q", err, tc.err)
			}

			raw, err := v1.Call(wire.ProcFrame, emptyUpdate)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, wire.EncodeFrameReply(round1)) {
				t.Error("v1 session after the refused reply: bytes are not round 1's")
			}
			raw, err = v2.Call(wire.ProcFrame, emptyUpdate)
			if err != nil {
				t.Fatal(err)
			}
			meta, err := wire.SkimFrameReply(wire.EncodeFrameReply(round1))
			if err != nil {
				t.Fatal(err)
			}
			mirror := wire.NewFrameEncoder()
			if !bytes.Equal(key, mirror.AppendFrame(nil, meta, rows1)) {
				t.Error("v2 keyframe is not round 1's assembly")
			}
			if !bytes.Equal(raw, mirror.AppendFrame(nil, meta, rows1)) || mirror.LastRef != 2 {
				t.Error("v2 session after the refused reply: not round 1 by reference")
			}
			if want := []uint64{0, 1, 1, 1}; !slices.Equal(lastRounds, want) {
				t.Errorf("rounds announced upstream = %v, want %v", lastRounds, want)
			}
			if c := r.caches[0]; c.round != 1 || !c.haveRows || c.meta.Round != 1 || len(c.rows) != 2 || c.rows[0].Seq != 11 {
				t.Errorf("cache after the refused reply: round %d, meta round %d, %d rows (have %v)",
					c.round, c.meta.Round, len(c.rows), c.haveRows)
			}
		})
	}
}

// TestRelayForgetsRoundOfLostUpstream: an origin restarted after a leg
// to it failed numbers its rounds from 1 again, so it can stand on the
// round the relay cached from the dead process. The relay must not
// announce that round to it: the new origin would answer a marker, and
// a workstation would be served the dead process's frame.
func TestRelayForgetsRoundOfLostUpstream(t *testing.T) {
	origin := func(iso float32) *dlib.Server {
		d := dlib.NewServer()
		d.Register(wire.ProcFrameRelay, func(_ *dlib.Ctx, payload []byte) ([]byte, error) {
			req, err := wire.DecodeRelayFrameRequest(payload)
			if err != nil {
				return nil, err
			}
			if req.LastRound == 3 {
				return wire.AppendRelayMarker(nil, 3), nil
			}
			round := testRound(3)
			round.Tools.Iso.Value = iso
			return wire.AppendRelayFrameReply(nil, wire.RelayFrameReply{
				Full: true, Round: 3, Frame: wire.EncodeFrameReply(round),
			}), nil
		})
		return d
	}
	var target atomic.Pointer[dlib.Server]
	target.Store(origin(0.5))
	var legs []net.Conn // the relay's upstream legs; dials run under serial dispatch
	r, err := New(Config{Upstreams: []dlib.DialFunc{func() (net.Conn, error) {
		conn, err := pipeTo(target.Load(), netsim.Link{})()
		legs = append(legs, conn)
		return conn, err
	}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	iso := func(c *dlib.Client) (float32, error) {
		raw, err := c.Call(wire.ProcFrame, emptyUpdate)
		if err != nil {
			return 0, err
		}
		got, err := wire.DecodeFrameReply(raw)
		if err != nil || got.Tools == nil {
			return 0, fmt.Errorf("frame: tools %v, %v", got.Tools, err)
		}
		return got.Tools.Iso.Value, nil
	}

	first := dial(t, r)
	if got, err := iso(first); err != nil || got != 0.5 {
		t.Fatalf("first origin: iso %v, %v", got, err)
	}
	// The origin dies; its restart answers the next dial.
	target.Store(origin(0.9))
	legs[0].Close()
	if _, err := iso(first); err == nil {
		t.Fatal("frame over the lost leg succeeded")
	}
	got, err := iso(dial(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.9 {
		t.Errorf("iso %v, want the new origin's 0.9", got)
	}
}

// TestRelayFullFetchAllocsIndependentOfLines: a hop that skims does the
// same number of allocations for a one-line round and a 256-line one,
// for both codecs (a full decode makes one per line).
func TestRelayFullFetchAllocsIndependentOfLines(t *testing.T) {
	if testing.Short() {
		t.Skip("counts allocations over a live relay")
	}
	measure := func(nLines int, codec uint8) float64 {
		g := wire.Geometry{Rake: 1}
		for l := 0; l < nLines; l++ {
			g.Lines = append(g.Lines, []vmath.Vec3{vmath.V3(1, 2, float32(l%10)), vmath.V3(4, 5, 6)})
		}
		round := wire.FrameReply{
			Time: wire.TimeStatus{NumSteps: 4}, Rakes: []wire.RakeState{{ID: 1, NumSeeds: uint32(nLines)}},
			Geometry: []wire.Geometry{g},
		}
		seg := wire.AppendGeomV2(nil, g, testQuant)
		up := dlib.NewServer()
		up.Register(wire.ProcHello2, helloV2)
		// Two allocations a reply whatever the round holds, and a new
		// round — a full fetch — on every exchange.
		up.Register(wire.ProcFrameRelay, func(_ *dlib.Ctx, payload []byte) ([]byte, error) {
			round.Round++
			rep := wire.RelayFrameReply{Full: true, Round: round.Round, Frame: wire.EncodeFrameReply(round)}
			if codec >= wire.CodecV2 {
				rep.HasDir, rep.Dir = true, []wire.Segment{{Key: 1, Seq: round.Round, Bytes: seg}}
			}
			return wire.AppendRelayFrameReply(make([]byte, 0, len(rep.Frame)+len(seg)+64), rep), nil
		})
		c := dialRelay(t, up)
		if codec >= wire.CodecV2 {
			if _, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(codec)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := c.Call(wire.ProcFrame, emptyUpdate); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, codec := range []uint8{wire.CodecV1, wire.CodecV2} {
		one, many := measure(1, codec), measure(256, codec)
		t.Logf("codec v%d: %.0f allocations an exchange at 1 line, %.0f at 256", codec, one, many)
		if many > one+8 {
			t.Errorf("codec v%d: allocations grow with the line count: %.0f at 1 line, %.0f at 256", codec, one, many)
		}
	}
}
