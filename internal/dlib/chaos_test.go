// Chaos suite: scripted, seeded fault schedules driven through
// netsim's deterministic FaultPlan, asserting the resilience the paper
// demands of the workstation/remote-host loop — a call with a deadline
// never blocks past it, a reset is survived by redial, and a dead
// connection never wedges the serial dispatch.
package dlib

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
)

// chaosSlack is the CI allowance on top of a call deadline: generous
// against scheduler noise, tiny against the "blocks forever" failure
// the suite guards against.
const chaosSlack = 2 * time.Second

// startChaosServer runs an echo server over an in-memory pipe whose
// CLIENT end executes clientPlan and whose SERVER end executes
// serverPlan (either may be empty).
func startChaosServer(t *testing.T, clientPlan, serverPlan *netsim.FaultPlan) (*Server, *Client, *netsim.FaultConn, *netsim.FaultConn) {
	t.Helper()
	a, b := net.Pipe()
	ca := clientPlan.Wrap(a)
	cb := serverPlan.Wrap(b)
	s := NewServer()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	go s.ServeConn(cb)
	c := NewClient(ca)
	t.Cleanup(func() {
		c.Close()
		cb.Close()
		s.Close()
	})
	return s, c, ca, cb
}

// TestChaosCallDeadlineBounded is the acceptance matrix: under every
// injected fault kind, Call with a deadline returns by the deadline
// (plus scheduler slack), never blocking indefinitely.
func TestChaosCallDeadlineBounded(t *testing.T) {
	const deadline = 60 * time.Millisecond
	cases := []struct {
		name       string
		clientPlan *netsim.FaultPlan
		serverPlan *netsim.FaultPlan
		// wantTimeout: the fault silences the link, so the deadline is
		// what ends the call. Otherwise any prompt transport error is
		// acceptable.
		wantTimeout bool
	}{
		{
			// The reply header is cut mid-read and never resumes: the
			// paper's stalled UltraNet transfer.
			name: "stall-mid-reply",
			clientPlan: &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultStallRead, AtOp: 2}, // 0 = stall until close
			}},
			wantTimeout: true,
		},
		{
			name: "stall-first-read",
			clientPlan: &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultStallRead, AtOp: 1},
			}},
			wantTimeout: true,
		},
		{
			// One-way partition: our frames reach the server, its
			// replies vanish.
			name: "partition-inbound",
			clientPlan: &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultDropRead, AtOp: 1},
			}},
			wantTimeout: true,
		},
		{
			// Server writes stop reaching us mid-stream.
			name: "partition-outbound-of-server",
			serverPlan: &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultDropWrite, AtOp: 1},
			}},
			wantTimeout: true,
		},
		{
			// Hard reset while the server writes the reply (server ops:
			// two reads for the call frame, then the reply write).
			name: "reset-during-reply",
			serverPlan: &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultReset, AtOp: 3},
			}},
		},
		{
			// Reply frame truncated on the wire, then the link dies.
			name: "truncate-reply",
			serverPlan: &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultTruncateWrite, AtOp: 1, KeepBytes: 5},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c, _, _ := startChaosServer(t, tc.clientPlan, tc.serverPlan)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			_, err := c.CallContext(ctx, "echo", []byte("probe"))
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("call succeeded through a fatal fault")
			}
			if elapsed > deadline+chaosSlack {
				t.Fatalf("call blocked %v past its %v deadline", elapsed, deadline)
			}
			if tc.wantTimeout && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want DeadlineExceeded", err)
			}
		})
	}
}

// TestChaosScriptedScheduleDeterministic replays an identical op
// script against an identical plan twice and demands identical fault
// firings and identical call outcomes — the property that makes every
// other chaos scenario reproducible from its schedule.
func TestChaosScriptedScheduleDeterministic(t *testing.T) {
	type outcome struct {
		fired []netsim.FiredFault
		errs  [3]bool
	}
	run := func() outcome {
		serverPlan := &netsim.FaultPlan{Faults: []netsim.Fault{
			{Kind: netsim.FaultStallWrite, AtOp: 2, Duration: time.Millisecond},
			{Kind: netsim.FaultReset, AtOp: 7},
		}}
		_, c, _, cb := startChaosServer(t, &netsim.FaultPlan{}, serverPlan)
		var o outcome
		for i := 0; i < 3; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			_, err := c.CallContext(ctx, "echo", []byte("x"))
			cancel()
			o.errs[i] = err != nil
		}
		o.fired = cb.Fired()
		return o
	}
	a, b := run(), run()
	// Each echo is 2 server reads + 2 server writes; total op 7 is the
	// second call's reply header write.
	if len(a.fired) != 2 || a.fired[1].Kind != netsim.FaultReset || a.fired[1].Op != 7 {
		t.Errorf("run A fired %+v", a.fired)
	}
	if a.errs != [3]bool{false, true, true} {
		t.Errorf("run A outcomes = %v, want call 2 and 3 failing", a.errs)
	}
	if len(a.fired) != len(b.fired) || a.errs != b.errs {
		t.Errorf("runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Errorf("fired[%d]: %+v vs %+v", i, a.fired[i], b.fired[i])
		}
	}
}

// TestChaosRedialSurvivesReset: a reset mid-session must cost one
// reconnect, not the session — the workstation's network process keeps
// going while the render loop draws stale geometry.
func TestChaosRedialSurvivesReset(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	var dials atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			// First connection dies on its third total operation.
			plan := &netsim.FaultPlan{Faults: []netsim.Fault{
				{Kind: netsim.FaultReset, AtOp: 3},
			}}
			return plan.Wrap(conn), nil
		}
		return conn, nil
	}, RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: 500 * time.Millisecond,
	})
	defer r.Close()

	deadline := time.Now().Add(10 * time.Second)
	var ok int
	for i := 0; i < 10 && time.Now().Before(deadline); i++ {
		out, err := callRetrying(context.Background(), r, "echo", []byte("n"))
		if err == nil && string(out) == "n" {
			ok++
		}
	}
	if ok != 10 {
		t.Errorf("%d/10 idempotent calls recovered; redials=%d", ok, r.Redials())
	}
	if r.Redials() < 1 {
		t.Errorf("no redial recorded despite injected reset")
	}
}

// TestChaosSeededSweep runs a seeded random fault plan against the
// redial client: whatever Chaos(seed) schedules, every call must end
// within its deadline + slack and the session must heal by the time
// the plan is exhausted.
func TestChaosSeededSweep(t *testing.T) {
	const seed = 1992 // the paper's year; any seed must work
	s := NewServer()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	var dials atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		// Each connection draws its own deterministic schedule; later
		// connections get progressively fewer faults so the sweep
		// always converges to a healthy link.
		n := 4 - int(dials.Add(1))
		if n <= 0 {
			return conn, nil
		}
		return netsim.Chaos(seed+dials.Load(), n, 12,
			netsim.FaultReset, netsim.FaultStallRead, netsim.FaultDropRead).Wrap(conn), nil
	}, RedialOptions{
		BaseBackoff: time.Millisecond,
		MaxAttempts: 16,
		CallTimeout: 100 * time.Millisecond,
	})
	defer r.Close()

	const calls = 12
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		out, err := callRetrying(ctx, r, "echo", []byte{byte(i)})
		cancel()
		if elapsed := time.Since(start); elapsed > 5*time.Second+chaosSlack {
			t.Fatalf("call %d ran %v, unbounded under chaos", i, elapsed)
		}
		if err != nil {
			t.Fatalf("call %d never recovered: %v (redials=%d)", i, err, r.Redials())
		}
		if len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("call %d corrupted: %v", i, out)
		}
	}
}

// TestChaosStalledClientDoesNotWedgeOthers: one client stops draining
// its socket mid-session. A second client's calls keep completing — a
// reply is written after the dispatch lock is released, so the
// serialized dispatch never waits on a peer's socket — and the write
// timeout closes the stalled session and runs its OnDisconnect, which
// is what frees a non-draining holder's locks.
func TestChaosStalledClientDoesNotWedgeOthers(t *testing.T) {
	s := NewServer()
	s.WriteTimeout = 50 * time.Millisecond
	var stalled atomic.Int64
	gone := make(chan int64, 2)
	s.OnDisconnect = func(sess *Session) { gone <- sess.ID }
	s.Register("bulk", func(ctx *Ctx, _ []byte) ([]byte, error) {
		stalled.Store(ctx.Session.ID)
		return make([]byte, 1<<20), nil // big enough to fill kernel buffers
	})
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	// The stalled client: raw socket that sends bulk requests and never
	// reads a byte back. A fixed receive buffer keeps the kernel from
	// growing it, so 16 MB of replies outgrow the socket buffers and a
	// reply write blocks for good.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		writeFrame(raw, frame{kind: frameCall, id: uint64(i + 1), proc: "bulk"})
	}

	healthy, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		out, err := healthy.CallContext(ctx, "echo", []byte("alive"))
		cancel()
		if err != nil || string(out) != "alive" {
			t.Fatalf("healthy call %d failed behind stalled peer: %v", i, err)
		}
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case id := <-gone:
			if id == stalled.Load() {
				return
			}
		case <-deadline:
			t.Fatal("the non-draining session was never closed")
		}
	}
}
