// Chaos: live steering from the workstation side. A reconnect kills
// both sides of the v2 delta shadow AND the steering session — the
// redial must resync the stream with a keyframe and leave the server's
// steering state consistent: the lock freed FCFS, the parameters either
// fully applied or untouched, never torn.
package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// buildLiveServer couples a small live solver to a server, the way
// core.ServeLive wires it, without a listener.
func buildLiveServer(t *testing.T) (*server.Server, *datasets.Live) {
	t.Helper()
	lv, err := datasets.NewLive(
		datasets.Spec{NI: 12, NJ: 12, NK: 6, NumSteps: 8, DT: 0.2},
		datasets.LiveOptions{
			Solver: datasets.SolverOptions{Resolution: 16, SpinupSteps: 6, Workers: 2},
		})
	if err != nil {
		t.Fatal(err)
	}
	def := datasets.DefaultSteer()
	srv, err := server.New(server.Config{
		Store: lv.Ring(),
		Steer: env.SteerParams{InflowU: def.InflowU, Reynolds: def.Reynolds, Taper: def.Taper},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := srv.Env()
	lv.SetSteerSource(func() (datasets.Steering, uint64) {
		s := e.Steer()
		return datasets.Steering{
			InflowU:  s.Params.InflowU,
			Reynolds: s.Params.Reynolds,
			Taper:    s.Params.Taper,
		}, s.Version
	})
	t.Cleanup(func() { srv.Dlib().Close() })
	return srv, lv
}

// liveDialer is faultyDialer against a live server.
func liveDialer(srv *server.Server, faultyConn int, plan *netsim.FaultPlan) (dlib.DialFunc, *atomic.Int64) {
	var dials atomic.Int64
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		go srv.Dlib().ServeConn(b)
		if int(dials.Add(1)) == faultyConn {
			return plan.Wrap(a), nil
		}
		return a, nil
	}, &dials
}

// TestChaosV2SteerReconnectResync: a v2 workstation steering a live
// server is reset mid-stream. The redial must (a) resync the delta
// stream with a keyframe so post-reconnect frames decode, (b) leave
// the steering lock free for the new session once the origin has seen
// the old one close, and (c) leave the applied parameters a complete
// triple — after which the new session re-steers successfully.
func TestChaosV2SteerReconnectResync(t *testing.T) {
	srv, lv := buildLiveServer(t)
	// Reset a few ops into the stream, after the steer frame has had a
	// chance to land.
	plan := &netsim.FaultPlan{Faults: []netsim.Fault{
		{Kind: netsim.FaultReset, AtOp: 16},
	}}
	dial, _ := liveDialer(srv, 1, plan)
	w, err := NewResilient(dial, Config{FrameW: 64, FrameH: 64, Codec: wire.CodecV2}, dlib.RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Codec() != wire.CodecV2 {
		t.Fatalf("negotiated codec %d", w.Codec())
	}
	user, err := vr.NewScriptedUser(11)
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1: scene plus a steering change, playback on so the
	// producer runs.
	b := lv.Ring().Grid().Bounds()
	mid := b.Min.Lerp(b.Max, 0.5)
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: b.Min.Lerp(b.Max, 0.4), P1: mid,
		NumSeeds: 4, Tool: uint8(integrate.ToolStreamline)})
	w.Queue(wire.Command{Kind: wire.CmdSetSpeed, Value: 1})
	w.Queue(wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})
	w.Queue(wire.Command{Kind: wire.CmdSteerGrab})
	w.Queue(wire.Command{Kind: wire.CmdSteer, P0: vmath.V3(2, 300, 0.8)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	id1 := w.sessionID()
	if st := srv.Env().Steer(); st.Params.InflowU != 2 || st.Holder != id1 {
		t.Fatalf("steer did not take before the fault: %+v", st)
	}

	// Drive frames until the reset fires and the redial heals it.
	sawError := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && w.Reconnects() == 0 {
		if err := w.NetStep(user.Step()); err != nil {
			sawError = true
		}
	}
	if !sawError || w.Reconnects() == 0 {
		t.Fatalf("reset never fired: errors=%v reconnects=%d", sawError, w.Reconnects())
	}
	// Recover on the fresh connection.
	var recovered bool
	for time.Now().Before(deadline) {
		if err := w.NetStep(user.Step()); err == nil {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("never recovered: %v", w.LastNetError())
	}

	// (a) The resynced v2 stream decodes: post-reconnect frames carry
	// the scene's geometry through a fresh keyframe.
	if w.Codec() != wire.CodecV2 {
		t.Fatalf("codec after reconnect: %d", w.Codec())
	}
	latest, ok := w.Latest()
	if !ok || len(latest.Rakes) == 0 {
		t.Fatalf("post-resync state lost the scene: %+v", latest.Rakes)
	}

	// (b) The dead session's steering lock comes free once the origin
	// sees its connection close, which nothing orders before the
	// successor's first frame; the parameters it applied survived
	// un-torn.
	for time.Now().Before(deadline) && srv.Env().Steer().Holder == id1 {
		time.Sleep(time.Millisecond)
	}
	st := srv.Env().Steer()
	if st.Holder == id1 {
		t.Fatalf("dead session %d still holds steering", id1)
	}
	if st.Params != (env.SteerParams{InflowU: 2, Reynolds: 300, Taper: 0.8}) {
		t.Fatalf("steering params after reconnect: %+v", st.Params)
	}

	// (c) The new session re-steers FCFS and the change reaches the
	// solver as a complete triple.
	w.Queue(wire.Command{Kind: wire.CmdSteerGrab})
	w.Queue(wire.Command{Kind: wire.CmdSteer, P0: vmath.V3(1.5, 500, 0.6)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("re-steer frame: %v", err)
	}
	for i := 0; i < 4; i++ {
		w.NetStep(user.Step())
	}
	if st := srv.Env().Steer(); st.Params.InflowU != 1.5 {
		t.Fatalf("re-steer did not land: %+v", st)
	}
	for _, ap := range lv.AppliedSteer() {
		if ap != (datasets.Steering{InflowU: 2, Reynolds: 300, Taper: 0.8}) &&
			ap != (datasets.Steering{InflowU: 1.5, Reynolds: 500, Taper: 0.6}) {
			t.Fatalf("solver applied a torn triple: %+v", ap)
		}
	}
}
