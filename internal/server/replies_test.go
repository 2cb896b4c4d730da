package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// TestRepliesSurviveRoundAdvance is the origin's twin of
// relay.TestRelayRepliesSurviveRoundAdvance: it pins dlib.Handler's
// reply-buffer contract (a reply is fresh or session-owned). A mover
// advances the round with a command on every frame, each round a new
// size; beside it a direct v1 watcher reads through a latency link — its
// reply, the round's shared codec-v1 buffer, waits in the writer outside
// the dispatch lock while the mover's rounds are encoded — next to a v2
// watcher and a raw vw.framerelay caller, each served from its session's
// own buffer. Every reply must arrive as the bytes the handler returned
// for it, decode, re-encode to exactly its own bytes where its codec is
// stateless, and name its round. A buffer rewritten under a write
// arrives as other bytes; `make race` also runs the test under the race
// detector.
func TestRepliesSurviveRoundAdvance(t *testing.T) {
	s, err := New(Config{Store: testDataset(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Dlib().Close() })

	// returned holds, per session, a copy of the last reply its handler
	// returned, taken under the serial dispatch lock.
	var mu sync.Mutex
	returned := map[int64][]byte{}
	keep := func(h dlib.Handler) dlib.Handler {
		return func(ctx *dlib.Ctx, payload []byte) ([]byte, error) {
			out, err := h(ctx, payload)
			mu.Lock()
			returned[ctx.Session.ID] = bytes.Clone(out)
			mu.Unlock()
			return out, err
		}
	}
	s.Dlib().Register(wire.ProcFrame, keep(s.handleFrame))
	s.Dlib().Register(wire.ProcFrameRelay, keep(s.handleFrameRelay))

	type session struct {
		c  *dlib.Client
		id int64
	}
	dial := func(l netsim.Link) session {
		conn, _ := serveDial(s.Dlib(), l)() // an in-memory pipe cannot fail to dial
		c := dlib.NewClient(conn)
		t.Cleanup(func() { c.Close() })
		raw, err := c.Call(wire.ProcWhoAmI, nil)
		if err != nil || len(raw) != 8 {
			t.Fatalf("whoami: %d bytes, %v", len(raw), err)
		}
		return session{c, int64(binary.LittleEndian.Uint64(raw))}
	}
	// call runs one exchange and checks that what arrived is what the
	// handler returned.
	call := func(ss session, proc string, payload []byte) ([]byte, error) {
		raw, err := ss.c.Call(proc, payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		want := returned[ss.id]
		mu.Unlock()
		if !bytes.Equal(raw, want) {
			return nil, fmt.Errorf("the %d bytes that arrived are not the %d the handler returned", len(raw), len(want))
		}
		return raw, nil
	}
	// v1Round checks a codec-v1 reply and returns the round it names.
	v1Round := func(raw []byte) (uint64, error) {
		r, err := wire.DecodeFrameReply(raw)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(wire.EncodeFrameReply(r), raw) {
			return 0, errors.New("does not re-encode to its own bytes")
		}
		if r.Round == 0 {
			return 0, errors.New("names no round")
		}
		return r.Round, nil
	}
	idle := wire.EncodeClientUpdate(wire.ClientUpdate{Head: vmath.Identity()})

	mover, v1, v2, hop := dial(netsim.Link{}), dial(netsim.Link{Latency: 2 * time.Millisecond}),
		dial(netsim.Link{Latency: time.Millisecond}), dial(netsim.Link{Latency: time.Millisecond})
	add := wire.EncodeClientUpdate(wire.ClientUpdate{Head: vmath.Identity(), Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 12, 4), 2, integrate.ToolStreamline),
	}})
	if _, err := call(mover, wire.ProcFrame, add); err != nil {
		t.Fatal(err)
	}
	var reseed [7][]byte
	for i := range reseed {
		reseed[i] = wire.EncodeClientUpdate(wire.ClientUpdate{Head: vmath.Identity(), Commands: []wire.Command{
			{Kind: wire.CmdSetSeeds, Rake: 1, NumSeeds: uint32(3 + i)},
		}})
	}
	stop, moverDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(moverDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			raw, err := call(mover, wire.ProcFrame, reseed[i%len(reseed)])
			if err == nil {
				_, err = v1Round(raw)
			}
			if err != nil {
				t.Errorf("mover frame %d: %v", i, err)
				return
			}
		}
	}()

	const frames = 20
	var watchers sync.WaitGroup
	watchers.Add(3)
	go func() {
		defer watchers.Done()
		rounds := map[uint64]bool{}
		var last uint64
		for i := 0; i < frames; i++ {
			raw, err := call(v1, wire.ProcFrame, idle)
			var round uint64
			if err == nil {
				round, err = v1Round(raw)
			}
			if err == nil && round < last {
				err = fmt.Errorf("round %d after round %d", round, last)
			}
			if err != nil {
				t.Errorf("v1 frame %d: %v", i, err)
				return
			}
			last, rounds[round] = round, true
		}
		if len(rounds) < 2 {
			t.Errorf("v1 watcher saw %d distinct rounds; the round never advanced under a reply", len(rounds))
		}
	}()
	go func() {
		defer watchers.Done()
		raw, err := v2.c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2))
		if err != nil {
			t.Errorf("v2 hello: %v", err)
			return
		}
		codec, info, err := wire.DecodeHelloReply(raw)
		if err != nil || codec != wire.CodecV2 {
			t.Errorf("v2 hello: codec %d, %v", codec, err)
			return
		}
		dec := wire.NewFrameDecoder(info.Quantizer())
		var last uint64
		for i := 0; i < frames; i++ {
			raw, err := call(v2, wire.ProcFrame, idle)
			var r wire.FrameReply
			if err == nil {
				r, err = dec.Decode(raw)
			}
			if err == nil && (r.Round == 0 || r.Round < last) {
				err = fmt.Errorf("round %d after round %d", r.Round, last)
			}
			if err != nil {
				t.Errorf("v2 frame %d: %v", i, err)
				return
			}
			last = r.Round
		}
	}()
	go func() {
		defer watchers.Done()
		var last uint64
		for i := 0; i < frames; i++ {
			req := wire.AppendRelayFrameRequest(nil, wire.RelayFrameRequest{LastRound: last, WantSegs: true, Update: idle})
			raw, err := call(hop, wire.ProcFrameRelay, req)
			var rep wire.RelayFrameReply
			if err == nil {
				rep, err = wire.DecodeRelayFrameReply(raw)
			}
			if err == nil && !bytes.Equal(wire.AppendRelayFrameReply(nil, rep), raw) {
				err = errors.New("does not re-encode to its own bytes")
			}
			if err == nil && rep.Full {
				var round uint64
				if round, err = v1Round(rep.Frame); err == nil && (round != rep.Round || round < last) {
					err = fmt.Errorf("full reply for round %d carries round %d, after round %d", rep.Round, round, last)
				}
			} else if err == nil && rep.Round != last {
				err = fmt.Errorf("marker names round %d, the caller holds %d", rep.Round, last)
			}
			if err != nil {
				t.Errorf("relay exchange %d: %v", i, err)
				return
			}
			last = rep.Round
		}
	}()
	watchers.Wait()
	close(stop)
	<-moverDone
}
