package core

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compute"
	"repro/internal/field"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// smallDataset synthesizes a laptop-scale tapered cylinder dataset in
// grid coordinates.
func smallDataset(t testing.TB, numSteps int) *field.Unsteady {
	t.Helper()
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 12, NJ: 16, NK: 6, R0: 1, R1: 0.5, Router: 10, Span: 12, Stretch: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := flow.SampleUnsteady(flow.DefaultTaperedCylinder(), g, numSteps, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ToGridCoords(); err != nil {
		t.Fatal(err)
	}
	return u
}

// runFrames runs n frames and returns the per-frame results.
func runFrames(s *Session, n int) ([]FrameResult, error) {
	out := make([]FrameResult, 0, n)
	for range n {
		r, err := s.Frame()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func TestLocalSessionFullLoop(t *testing.T) {
	sess, err := LaunchLocal(smallDataset(t, 4), server.Config{}, client.Config{FrameW: 64, FrameH: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	sess.AddRake(vmath.V3(-4, -3, 2), vmath.V3(-4, 3, 2), 5, integrate.ToolStreamline)
	sess.Play(1)
	results, err := runFrames(sess, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("frames = %d", len(results))
	}
	var gotPoints bool
	for _, r := range results {
		if r.Points > 0 {
			gotPoints = true
		}
	}
	if !gotPoints {
		t.Error("no geometry over 5 frames")
	}
	if sess.Server() == nil {
		t.Error("local session has no server")
	}
	if st := sess.Server().Stats(); st.Frames == 0 {
		t.Error("server computed no frames")
	}
}

func TestLocalFrameWithinBudget(t *testing.T) {
	// A modest workload on the local pipe must meet the 1/8s budget —
	// this is the paper's core interactivity requirement.
	sess, err := LaunchLocal(smallDataset(t, 3), server.Config{}, client.Config{FrameW: 64, FrameH: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.AddRake(vmath.V3(-4, -3, 2), vmath.V3(-4, 3, 2), 10, integrate.ToolStreamline)
	// Warm up, then measure.
	if _, err := runFrames(sess, 2); err != nil {
		t.Fatal(err)
	}
	r, err := sess.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !r.WithinBudget {
		t.Errorf("frame took %v, budget %v", r.Total, FrameBudget)
	}
}

func TestDistributedSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, server.Config{Store: store.NewMemory(smallDataset(t, 3))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Dlib().Close()

	sess, err := Connect(ln.Addr().String(), nil, client.Config{FrameW: 32, FrameH: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.AddRake(vmath.V3(-4, 0, 2), vmath.V3(4, 0, 2), 4, integrate.ToolStreakline)
	sess.Play(0.5)
	if _, err := runFrames(sess, 3); err != nil {
		t.Fatal(err)
	}
	state, ok := sess.WS.Latest()
	if !ok || len(state.Rakes) != 1 {
		t.Fatalf("state not shared: ok=%v rakes=%d", ok, len(state.Rakes))
	}
}

func TestTwoUsersShareOneServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, server.Config{Store: store.NewMemory(smallDataset(t, 3))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Dlib().Close()

	s1, err := Connect(ln.Addr().String(), nil, client.Config{FrameW: 32, FrameH: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Connect(ln.Addr().String(), nil, client.Config{FrameW: 32, FrameH: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	s1.AddRake(vmath.V3(-4, 0, 2), vmath.V3(4, 0, 2), 4, integrate.ToolStreamline)
	if _, err := s1.Frame(); err != nil {
		t.Fatal(err)
	}
	// User 2 sees user 1's rake and user 1's presence.
	if _, err := s2.Frame(); err != nil {
		t.Fatal(err)
	}
	state, _ := s2.WS.Latest()
	if len(state.Rakes) != 1 {
		t.Errorf("user 2 sees %d rakes", len(state.Rakes))
	}
	if len(state.Users) < 1 {
		t.Error("user 2 sees no other users")
	}
}

func TestConnectValidation(t *testing.T) {
	if _, err := Connect("", nil, client.Config{}); err == nil {
		t.Error("Connect with neither address nor conn accepted")
	}
}

func TestSummarize(t *testing.T) {
	ms := func(n int) FrameResult {
		d := time.Duration(n) * time.Millisecond
		return FrameResult{Total: d, WithinBudget: d <= FrameBudget, Points: n * 10}
	}
	results := []FrameResult{ms(10), ms(20), ms(30), ms(40), ms(200)}
	s := Summarize(results)
	if s.Frames != 5 {
		t.Fatalf("frames = %d", s.Frames)
	}
	if s.Mean != 60*time.Millisecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 != 30*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.Worst != 200*time.Millisecond {
		t.Errorf("worst = %v", s.Worst)
	}
	if s.WithinBudget != 4 {
		t.Errorf("within = %d", s.WithinBudget)
	}
	if s.MeanPoints != 600 {
		t.Errorf("meanPoints = %d", s.MeanPoints)
	}
	if Summarize(nil).Frames != 0 {
		t.Error("empty summarize")
	}
	if s.String() == "" || Summarize(nil).String() != "no frames" {
		t.Error("String formatting")
	}
}

// TestPercentile pins the percentile rule's edges: no samples, one
// sample, and both ends of the range.
func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	one := []time.Duration{7}
	if got := Percentile(one, 0.99); got != 7 {
		t.Errorf("singleton p99 = %v", got)
	}
	four := []time.Duration{1, 2, 3, 4}
	if got := Percentile(four, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(four, 1); got != 4 {
		t.Errorf("p100 = %v", got)
	}
}

func TestLateJoinSeesExistingEnvironment(t *testing.T) {
	// Sec 5.1: "at any time during the use of the distributed virtual
	// windtunnel another workstation ... should be able to 'sign up'
	// and interact with the already existing virtual environment."
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, server.Config{Store: store.NewMemory(smallDataset(t, 4))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Dlib().Close()

	first, err := Connect(ln.Addr().String(), nil, client.Config{FrameW: 32, FrameH: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	first.AddRake(vmath.V3(-4, 0, 2), vmath.V3(4, 0, 2), 4, integrate.ToolStreamline)
	first.Play(1)
	if _, err := runFrames(first, 5); err != nil {
		t.Fatal(err)
	}
	stateBefore, _ := first.WS.Latest()

	// Sign up mid-session.
	late, err := Connect(ln.Addr().String(), nil, client.Config{FrameW: 32, FrameH: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := late.Frame(); err != nil {
		t.Fatal(err)
	}
	state, _ := late.WS.Latest()
	if len(state.Rakes) != 1 {
		t.Fatalf("late joiner sees %d rakes", len(state.Rakes))
	}
	if !state.Time.Playing {
		t.Error("late joiner does not see playback state")
	}
	if state.Time.Current < stateBefore.Time.Current {
		t.Error("late joiner sees stale time")
	}
	// And can interact immediately: grab the existing rake.
	late.WS.Queue(wire.Command{Kind: wire.CmdGrab, Rake: state.Rakes[0].ID,
		Grab: uint8(integrate.GrabCenter)})
	if _, err := late.Frame(); err != nil {
		t.Fatal(err)
	}
	state, _ = late.WS.Latest()
	if state.Rakes[0].Holder == 0 {
		t.Error("late joiner could not grab")
	}
}

// TestWorkersSetsEngineAndPoolWidth pins what a parallel engine's
// worker count reaches: both widths a round's computation has. One
// worker means a parallel-1 engine (compute.TestRangeWorkers: a single
// range runs on the caller) and a one-worker pool
// (server.runJobsLocked starts a goroutine per worker after the
// first), so a round with several dirty rakes and a dirty tool runs on
// the handler's goroutine alone — and, pool width never showing on the
// wire, produces the geometry any width does.
func TestWorkersSetsEngineAndPoolWidth(t *testing.T) {
	u := smallDataset(t, 2)
	round := func(workers int) wire.FrameReply {
		sess, err := LaunchLocal(u, server.Config{Engine: compute.Parallel{NumWorkers: workers}},
			client.Config{FrameW: 64, FrameH: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for y := float32(-3); y <= 3; y += 3 {
			sess.AddRake(vmath.V3(-4, y, 2), vmath.V3(-4, y, 4), 6, integrate.ToolStreamline)
		}
		sess.WS.Queue(wire.Command{Kind: wire.CmdIsoGrab})
		sess.WS.Queue(wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.8})
		if _, err := sess.Frame(); err != nil {
			t.Fatal(err)
		}
		if st := sess.Server().Stats(); st.RakesComputed != 3 || st.ToolsComputed != 1 {
			t.Fatalf("%d workers: round computed %d rakes and %d tools, want 3 and 1",
				workers, st.RakesComputed, st.ToolsComputed)
		}
		reply, _ := sess.WS.Latest()
		return reply
	}
	one, three := round(1), round(3)
	if one.TotalPoints() == 0 || one.Tools == nil || one.Tools.TotalPoints() == 0 {
		t.Fatalf("one-worker round shipped %d rake points, tools %+v", one.TotalPoints(), one.Tools)
	}
	if !reflect.DeepEqual(one.Geometry, three.Geometry) || !reflect.DeepEqual(one.Tools, three.Tools) {
		t.Error("one-worker round's geometry differs from the three-worker round's")
	}
}
