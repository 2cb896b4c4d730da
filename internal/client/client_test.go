package client

import (
	"math"
	"net"
	"runtime"
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

// startSystem spins up a full server and returns its address.
func startSystem(t *testing.T, numSteps int) string {
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Dlib().Serve(ln)
	t.Cleanup(func() { srv.Dlib().Close() })
	return ln.Addr().String()
}

func connect(t *testing.T, addr string) *Workstation {
	t.Helper()
	c, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	w, err := New(c, Config{FrameW: 64, FrameH: 64})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConnectAndHello(t *testing.T) {
	w := connect(t, startSystem(t, 4))
	if w.Info().NI != 16 || w.Info().NumSteps != 4 {
		t.Errorf("info = %+v", w.Info())
	}
}

func TestNetStepUpdatesState(t *testing.T) {
	w := connect(t, startSystem(t, 4))
	w.Queue(wire.Command{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(-3, 0, 0), P1: vmath.V3(-3, 3, 0),
		NumSeeds: 4, Tool: uint8(integrate.ToolStreamline),
	})
	if err := w.NetStep(vr.Pose{Head: vmath.Identity()}); err != nil {
		t.Fatal(err)
	}
	state, ok := w.Latest()
	if !ok {
		t.Fatal("no state after NetStep")
	}
	if len(state.Rakes) != 1 || state.TotalPoints() == 0 {
		t.Errorf("rakes=%d points=%d", len(state.Rakes), state.TotalPoints())
	}
	if w.Stats().NetFrames != 1 || w.Stats().BytesDown == 0 {
		t.Errorf("stats = %+v", w.Stats())
	}
}

func TestRenderFrameDrawsGeometry(t *testing.T) {
	w := connect(t, startSystem(t, 4))
	w.Queue(wire.Command{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(-3, -2, 0), P1: vmath.V3(-3, 2, 0),
		NumSeeds: 6, Tool: uint8(integrate.ToolStreamline),
	})
	if err := w.NetStep(vr.Pose{Head: vmath.Identity()}); err != nil {
		t.Fatal(err)
	}
	head := vmath.Translate(0, 0, 12) // looking down -Z at the grid
	if err := w.RenderFrame(head); err != nil {
		t.Fatal(err)
	}
	if lit := w.Framebuffer().CountLit(10); lit < 20 {
		t.Errorf("rendered frame has %d lit pixels", lit)
	}
}

// TestRenderFrameAllocs pins what a RenderFrame allocates: the scene
// closure, the second band's goroutine and what the two bands share —
// a handful of objects however much geometry the frame holds, nothing
// per segment, per vertex or per eye. (The display list and its ring
// are the workstation's and grow only until they fit the scene.)
func TestRenderFrameAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the two-band path
	head := vmath.Translate(0, 0, 12)
	perFrame := func(seeds int) float64 {
		w := connect(t, startSystem(t, 4))
		w.Queue(wire.Command{
			Kind: wire.CmdAddRake,
			P0:   vmath.V3(-3, -2, 0), P1: vmath.V3(-3, 2, 0),
			NumSeeds: uint32(seeds), Tool: uint8(integrate.ToolStreamline),
		})
		if err := w.NetStep(vr.Pose{Head: vmath.Identity()}); err != nil {
			t.Fatal(err)
		}
		const frames = 50
		var before, after runtime.MemStats
		for i := -5; i < frames; i++ { // five frames to warm the goroutine pool
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if err := w.RenderFrame(head); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if state, _ := w.Latest(); state.TotalPoints() < 10*seeds {
			t.Fatalf("%d seeds drew only %d points", seeds, state.TotalPoints())
		}
		return float64(after.Mallocs-before.Mallocs) / frames
	}
	small, large := perFrame(4), perFrame(64)
	t.Logf("allocs/frame: %.2f at 4 seeds, %.2f at 64", small, large)
	if small > 8 || large > 8 {
		t.Errorf("RenderFrame allocates %.1f (4 seeds) / %.1f (64 seeds) objects a frame, want <= 8", small, large)
	}
	if math.Abs(large-small) >= 2 { // a stray background allocation is not growth
		t.Errorf("allocations grow with geometry: %.1f a frame at 4 seeds, %.1f at 64", small, large)
	}
}

func TestRenderBeforeFirstNetFrame(t *testing.T) {
	w := connect(t, startSystem(t, 4))
	if err := w.RenderFrame(vmath.Translate(0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if w.Stats().RenderFrames != 1 {
		t.Error("render frame not counted")
	}
}

func TestDecoupledRatesWithSlowNetwork(t *testing.T) {
	// Figure 9's architecture claim: with a slow network, the render
	// loop still runs much faster than the net loop.
	addr := startSystem(t, 4)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	slow := netsim.Link{Latency: 20 * time.Millisecond}.Wrap(raw)
	c := dlib.NewClient(slow)
	t.Cleanup(func() { c.Close() })
	w, err := New(c, Config{FrameW: 32, FrameH: 32})
	if err != nil {
		t.Fatal(err)
	}
	user, err := vr.NewScriptedUser(1)
	if err != nil {
		t.Fatal(err)
	}
	netHz, renderHz, err := w.RunDecoupled(user, 5)
	if err != nil {
		t.Fatal(err)
	}
	if renderHz < netHz*2 {
		t.Errorf("render loop not decoupled: net %.1f Hz render %.1f Hz", netHz, renderHz)
	}
}

func TestInteractorGrabDragRelease(t *testing.T) {
	var in Interactor
	rakes := []wire.RakeState{{ID: 7, P0: vmath.V3(0, 0, 0), P1: vmath.V3(2, 0, 0)}}

	// Approach with open hand: nothing.
	cmds := in.Commands(vr.Pose{Hand: vmath.V3(0.1, 0.1, 0), Gesture: vr.GestureOpen}, rakes)
	if len(cmds) != 0 {
		t.Fatalf("open hand produced %v", cmds)
	}
	// Fist near P0: grab at end0 + initial move.
	cmds = in.Commands(vr.Pose{Hand: vmath.V3(0.1, 0.1, 0), Gesture: vr.GestureFist}, rakes)
	if len(cmds) != 2 || cmds[0].Kind != wire.CmdGrab || cmds[0].Rake != 7 {
		t.Fatalf("grab cmds = %+v", cmds)
	}
	if cmds[0].Grab != uint8(integrate.GrabEnd0) {
		t.Errorf("grabbed %d, want end0", cmds[0].Grab)
	}
	// Held fist: drag.
	cmds = in.Commands(vr.Pose{Hand: vmath.V3(1, 1, 0), Gesture: vr.GestureFist}, rakes)
	if len(cmds) != 1 || cmds[0].Kind != wire.CmdMove || cmds[0].Pos != vmath.V3(1, 1, 0) {
		t.Fatalf("drag cmds = %+v", cmds)
	}
	// Open: release.
	cmds = in.Commands(vr.Pose{Hand: vmath.V3(1, 1, 0), Gesture: vr.GestureOpen}, rakes)
	if len(cmds) != 1 || cmds[0].Kind != wire.CmdRelease {
		t.Fatalf("release cmds = %+v", cmds)
	}
	if _, holding := in.Holding(); holding {
		t.Error("still holding after release")
	}
}

func TestInteractorIgnoresFarGrabs(t *testing.T) {
	var in Interactor
	rakes := []wire.RakeState{{ID: 1, P0: vmath.V3(0, 0, 0), P1: vmath.V3(1, 0, 0)}}
	cmds := in.Commands(vr.Pose{Hand: vmath.V3(50, 50, 50), Gesture: vr.GestureFist}, rakes)
	if len(cmds) != 0 {
		t.Errorf("distant fist grabbed: %v", cmds)
	}
}

func TestInteractorNoRakes(t *testing.T) {
	var in Interactor
	cmds := in.Commands(vr.Pose{Gesture: vr.GestureFist}, nil)
	if len(cmds) != 0 {
		t.Errorf("grab with no rakes: %v", cmds)
	}
}

func TestEndToEndGestureDrivesServerLock(t *testing.T) {
	// Full loop: workstation gestures grab a rake on the server.
	addr := startSystem(t, 4)
	w := connect(t, addr)
	w.Queue(wire.Command{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(0, 0, 0), P1: vmath.V3(2, 0, 0),
		NumSeeds: 3, Tool: uint8(integrate.ToolStreamline),
	})
	if err := w.NetStep(vr.Pose{}); err != nil {
		t.Fatal(err)
	}
	// Fist at the rake center.
	if err := w.NetStep(vr.Pose{Hand: vmath.V3(1, 0.1, 0), Gesture: vr.GestureFist}); err != nil {
		t.Fatal(err)
	}
	state, _ := w.Latest()
	if state.Rakes[0].Holder == 0 {
		t.Error("gesture grab did not lock the rake on the server")
	}
	// Drag: rake follows the hand.
	if err := w.NetStep(vr.Pose{Hand: vmath.V3(2, 1, 0), Gesture: vr.GestureFist}); err != nil {
		t.Fatal(err)
	}
	state, _ = w.Latest()
	moved := state.Rakes[0].P0.Dist(vmath.V3(0, 0, 0)) > 0.1 ||
		state.Rakes[0].P1.Dist(vmath.V3(2, 0, 0)) > 0.1
	if !moved {
		t.Error("drag did not move the rake")
	}
	// Release.
	if err := w.NetStep(vr.Pose{Hand: vmath.V3(2, 1, 0), Gesture: vr.GestureOpen}); err != nil {
		t.Fatal(err)
	}
	state, _ = w.Latest()
	if state.Rakes[0].Holder != 0 {
		t.Error("release did not free the rake")
	}
}

func TestOtherUsersHeadsRendered(t *testing.T) {
	// Two workstations: B renders and must see A's head/hand glyphs.
	addr := startSystem(t, 4)
	a := connect(t, addr)
	b := connect(t, addr)
	// A reports a pose near the origin.
	if err := a.NetStep(vr.Pose{Head: vmath.Translate(0, 0, 0), Hand: vmath.V3(1, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := b.NetStep(vr.Pose{}); err != nil {
		t.Fatal(err)
	}
	state, _ := b.Latest()
	if len(state.Users) < 1 {
		t.Fatal("B sees no other users")
	}
	if err := b.RenderFrame(vmath.Translate(0, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if lit := b.Framebuffer().CountLit(10); lit < 10 {
		t.Errorf("user glyphs not visible: %d lit pixels", lit)
	}
}

// TestClientRoundTracking pins the workstation's view of the server's
// round accounting: Rounds counts distinct computation rounds observed,
// so a workstation holding still (whose repeats are memo-served with an
// unchanged Round id) sees Rounds fall behind NetFrames, while a
// head-tracked workstation advancing the scene sees them move together.
func TestClientRoundTracking(t *testing.T) {
	addr := startSystem(t, 2)
	w1 := connect(t, addr)
	w2 := connect(t, addr)

	// w2 holds perfectly still: after its first frame every repeat is a
	// whole-frame memo round carrying the same Round id.
	still := vr.Pose{Head: vmath.Identity()}
	for i := 0; i < 3; i++ {
		if err := w2.NetStep(still); err != nil {
			t.Fatal(err)
		}
	}
	s2 := w2.Stats()
	if s2.NetFrames != 3 {
		t.Fatalf("w2 net frames = %d", s2.NetFrames)
	}
	if s2.Rounds != 1 {
		t.Errorf("still workstation saw %d rounds over %d frames, want 1", s2.Rounds, s2.NetFrames)
	}

	// w1 moves its hand each frame, forcing fresh rounds once it has
	// consumed the current one; its round count tracks its frames.
	for i := 0; i < 3; i++ {
		pose := vr.Pose{Head: vmath.Identity(), Hand: vmath.V3(float32(i), 0.5, 0)}
		if err := w1.NetStep(pose); err != nil {
			t.Fatal(err)
		}
	}
	s1 := w1.Stats()
	if s1.NetFrames != 3 {
		t.Fatalf("w1 net frames = %d", s1.NetFrames)
	}
	// First frame joins w2's standing round; each subsequent one is new.
	if s1.Rounds != 3 {
		t.Errorf("moving workstation saw %d rounds over %d frames, want 3", s1.Rounds, s1.NetFrames)
	}
	if s1.LastRound <= s2.LastRound {
		t.Errorf("moving workstation's last round %d not past still one's %d",
			s1.LastRound, s2.LastRound)
	}

	// w2 steps once more: it joins the latest round, skipping the ones
	// it missed — LastRound jumps to w1's, Rounds advances by one.
	if err := w2.NetStep(still); err != nil {
		t.Fatal(err)
	}
	s2 = w2.Stats()
	if s2.Rounds != 2 {
		t.Errorf("rejoining workstation rounds = %d, want 2", s2.Rounds)
	}
	if s2.LastRound != s1.LastRound {
		t.Errorf("rejoin landed on round %d, want latest %d", s2.LastRound, s1.LastRound)
	}
}
