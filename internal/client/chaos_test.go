// Chaos suite for the workstation: network faults mid-session must
// degrade the experience, not end it. The render loop keeps drawing
// the last good geometry (figure 9's decoupling) while the network
// layer redials, replays the handshake, and resyncs.
package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// buildServer returns a windtunnel server without a listener; chaos
// tests attach connections by hand (pipes, fault wraps).
func buildServer(t *testing.T, numSteps int) *server.Server {
	t.Helper()
	g, err := grid.NewCartesian(16, 16, 8, vmath.AABB{
		Min: vmath.V3(-4, -4, -2), Max: vmath.V3(4, 4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, numSteps)
	for s := range steps {
		f := field.NewField(16, 16, 8, field.GridCoords)
		for i := range f.U {
			f.U[i] = 0.3
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store.NewMemory(u)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Dlib().Close() })
	return srv
}

// faultyDialer returns a DialFunc whose nth connection (1-based) gets
// the given plan; every other connection is clean.
func faultyDialer(srv *server.Server, faultyConn int, plan *netsim.FaultPlan) (dlib.DialFunc, *atomic.Int64) {
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

// TestChaosPartitionDuringTimestepStream: replies stop arriving mid-
// stream (one-way partition). The workstation must keep its last good
// state for rendering, then redial, re-handshake under a NEW session
// id, and resume — the resync the paper's shared environment needs.
func TestChaosPartitionDuringTimestepStream(t *testing.T) {
	srv := buildServer(t, 4)
	// Client-side read ops per reply over a pipe: 3 (length prefix,
	// header rest, payload). Handshake = hello + whoami = 6 ops, first
	// frame = 3 more; the partition opens during the second frame.
	plan := &netsim.FaultPlan{Faults: []netsim.Fault{
		{Kind: netsim.FaultDropRead, AtOp: 10},
	}}
	dial, dials := faultyDialer(srv, 1, plan)
	w, err := NewResilient(dial, Config{FrameW: 64, FrameH: 64}, dlib.RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	id1 := w.sessionID()
	user, err := vr.NewScriptedUser(42)
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1 flows; it also queues a rake so there is geometry to keep.
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: vmath.V3(-3, 0, 0), P1: vmath.V3(3, 0, 0),
		NumSeeds: 5, Tool: uint8(integrate.ToolStreamline)})
	if err := w.NetStep(user.Step()); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	before, ok := w.Latest()
	if !ok || len(before.Geometry) == 0 {
		t.Fatalf("no geometry before the partition: %+v", before)
	}

	// Frame 2 hits the partition: bounded failure, state retained.
	start := time.Now()
	if err := w.NetStep(user.Step()); err == nil {
		t.Fatal("frame 2 succeeded through a partition")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("partitioned frame blocked %v", elapsed)
	}
	during, ok := w.Latest()
	if !ok || len(during.Geometry) != len(before.Geometry) {
		t.Fatalf("last good geometry lost during outage")
	}
	// The render loop still draws it.
	if err := w.RenderFrame(vmath.Identity()); err != nil {
		t.Fatalf("render during outage: %v", err)
	}

	// Frame 3 redials and resyncs under a fresh session.
	deadline := time.Now().Add(10 * time.Second)
	var recovered bool
	for time.Now().Before(deadline) {
		if err := w.NetStep(user.Step()); err == nil {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("never recovered from partition: %v", w.LastNetError())
	}
	if w.Reconnects() != 1 {
		t.Errorf("Reconnects = %d, want 1", w.Reconnects())
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("dials = %d, want 2", got)
	}
	if w.sessionID() == id1 {
		t.Errorf("session id did not resync after reconnect")
	}
	if st := w.Stats(); st.NetErrors == 0 {
		t.Errorf("outage not recorded in stats: %+v", st)
	}
}

// TestChaosCommandsReplayAfterOutage: commands carried by a failed
// frame are requeued and reach the server after the reconnect — the
// user's interaction survives the fault. Delivery is at-least-once:
// when only the reply was lost, the replay can apply a command twice,
// so the assertion is "not lost", not "exactly once".
func TestChaosCommandsReplayAfterOutage(t *testing.T) {
	srv := buildServer(t, 4)
	// Partition before any reply: the very first frame call fails.
	plan := &netsim.FaultPlan{Faults: []netsim.Fault{
		{Kind: netsim.FaultDropRead, AtOp: 7}, // right after the 6-op handshake
	}}
	dial, _ := faultyDialer(srv, 1, plan)
	w, err := NewResilient(dial, Config{FrameW: 64, FrameH: 64}, dlib.RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	user, err := vr.NewScriptedUser(7)
	if err != nil {
		t.Fatal(err)
	}
	w.Queue(wire.Command{Kind: wire.CmdAddRake,
		P0: vmath.V3(-3, 0, 0), P1: vmath.V3(3, 0, 0),
		NumSeeds: 4, Tool: uint8(integrate.ToolStreamline)})

	if err := w.NetStep(user.Step()); err == nil {
		t.Fatal("first frame survived the partition")
	}
	// The rake command must not be lost with the failed frame.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := w.NetStep(user.Step()); err == nil {
			break
		}
	}
	latest, ok := w.Latest()
	if !ok || len(latest.Rakes) == 0 {
		t.Fatalf("queued rake lost across the outage: %+v", latest.Rakes)
	}
}

// TestChaosRunDecoupledSurvivesReset: the paper's decoupled loop runs
// through a connection reset — the render process never stops, the
// network process heals itself, and the run completes every round.
func TestChaosRunDecoupledSurvivesReset(t *testing.T) {
	srv := buildServer(t, 4)
	plan := &netsim.FaultPlan{Faults: []netsim.Fault{
		{Kind: netsim.FaultReset, AtOp: 16}, // a few ops into the stream
	}}
	dial, _ := faultyDialer(srv, 1, plan)
	w, err := NewResilient(dial, Config{FrameW: 64, FrameH: 64}, dlib.RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	user, err := vr.NewScriptedUser(3)
	if err != nil {
		t.Fatal(err)
	}
	netHz, renderHz, err := w.RunDecoupled(user, 8)
	if err != nil {
		t.Fatalf("decoupled run died on reset: %v", err)
	}
	if netHz <= 0 || renderHz <= 0 {
		t.Errorf("rates: net %.1f render %.1f", netHz, renderHz)
	}
	st := w.Stats()
	if st.NetErrors == 0 {
		t.Error("reset never observed — fault did not fire?")
	}
	if st.RenderFrames == 0 {
		t.Error("render loop stalled during outage")
	}
	if w.Reconnects() == 0 {
		t.Error("no reconnect recorded")
	}
}
