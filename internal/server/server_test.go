package server

import (
	"math"
	"net"
	"testing"

	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// testDataset builds a small resident dataset: uniform +X drift in
// grid coordinates so paths are predictable.
func testDataset(t testing.TB, numSteps int) *store.Memory {
	t.Helper()
	g, err := grid.NewCartesian(16, 16, 8, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(15, 15, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, numSteps)
	for s := range steps {
		f := field.NewField(16, 16, 8, field.GridCoords)
		for i := range f.U {
			f.U[i] = 0.5
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewMemory(u)
}

// toolDataset is testDataset's grid and bounds (so the same quantizer)
// with a field the shared tools can extract: a vertical shear plus a
// Gaussian swirl around the grid center whose amplitude grows per
// timestep, so iso and vortex geometry is non-empty and playback changes
// it.
func toolDataset(t testing.TB, numSteps int) *store.Memory {
	t.Helper()
	mem := testDataset(t, numSteps)
	for s, f := range mem.Unsteady().Steps {
		amp := 1 + 0.1*float64(s)
		for k := 0; k < 8; k++ {
			for j := 0; j < 16; j++ {
				for i := 0; i < 16; i++ {
					dx, dy := float64(i)-7.5, float64(j)-7.5
					swirl := amp * 0.4 * math.Exp(-(dx*dx+dy*dy)/18)
					n := f.Index(i, j, k)
					f.U[n] = float32(0.1*float64(j) - dy*swirl)
					f.V[n] = float32(dx * swirl)
					f.W[n] = 0.05
				}
			}
		}
	}
	return mem
}

// testDiskStore writes a resident dataset to a temp directory and
// opens it as an I/O-backed store.
func testDiskStore(t testing.TB, mem *store.Memory, opts store.DiskOptions) *store.Disk {
	t.Helper()
	dir := t.TempDir()
	if err := store.WriteDataset(dir, mem.Unsteady()); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// startTestServer wires a Server to loopback TCP and returns a
// connected dlib client.
func startTestServer(t *testing.T, cfg Config) (*Server, *dlib.Client, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Dlib().Serve(ln)
	addr := ln.Addr().String()
	c, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Dlib().Close()
	})
	return s, c, addr
}

// frame is rawFrame decoded as codec v1.
func frame(t *testing.T, c *dlib.Client, u wire.ClientUpdate) wire.FrameReply {
	t.Helper()
	r, err := wire.DecodeFrameReply(rawFrame(t, c, u))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(Config{
		Store:   testDataset(t, 2),
		Options: integrate.Options{StepSize: 0, MaxSteps: 5},
	}); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestNewHoldsSeedsToCommandBounds: a tool or steering seed is held to
// the bounds applyCommand holds a client's command to. New refuses a
// seed the command path would drop — it would otherwise boot a server
// with, say, a NaN vortex threshold — and an accepted seed lands in the
// environment as given, uncounted.
func TestNewHoldsSeedsToCommandBounds(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	tool := func(id env.ToolID, axis uint8, v float32) (seeds [env.NumTools]env.ToolParams) {
		seeds[id-1] = env.ToolParams{Enabled: true, Axis: axis, Value: v}
		return seeds
	}
	steer := func(u, re, taper float32) env.SteerParams {
		return env.SteerParams{InflowU: u, Reynolds: re, Taper: taper}
	}
	for _, c := range []struct {
		name  string
		steer env.SteerParams
		tools [env.NumTools]env.ToolParams
		ok    bool
	}{
		{name: "unseeded", ok: true},
		{name: "iso 0.8", tools: tool(env.ToolIso, 0, 0.8), ok: true},
		{name: "iso 1e6", tools: tool(env.ToolIso, 0, 1e6), ok: true},
		{name: "iso 1e9", tools: tool(env.ToolIso, 0, 1e9)},
		{name: "iso -0.1", tools: tool(env.ToolIso, 0, -0.1)},
		{name: "iso NaN", tools: tool(env.ToolIso, 0, nan)},
		{name: "iso with an axis", tools: tool(env.ToolIso, 1, 0.8)},
		{name: "plane k 1", tools: tool(env.ToolPlane, 2, 1), ok: true},
		{name: "plane axis 3", tools: tool(env.ToolPlane, 3, 0.5)},
		{name: "plane 1.5", tools: tool(env.ToolPlane, 0, 1.5)},
		{name: "plane NaN", tools: tool(env.ToolPlane, 0, nan)},
		{name: "vortex -1e6", tools: tool(env.ToolVortex, 0, -1e6), ok: true},
		{name: "vortex NaN", tools: tool(env.ToolVortex, 0, nan)},
		{name: "vortex Inf", tools: tool(env.ToolVortex, 0, inf)},
		{name: "vortex -2e6", tools: tool(env.ToolVortex, 0, -2e6)},
		{name: "steer", steer: steer(1, 400, 0.5), ok: true},
		{name: "steer Re NaN", steer: steer(1, nan, 0.5)},
		{name: "steer Re 0", steer: steer(1, 0, 0.5)},
		{name: "steer inflow 0", steer: steer(0, 400, 0.5)},
		{name: "steer inflow Inf", steer: steer(inf, 400, 0.5)},
		{name: "steer taper 3", steer: steer(1, 400, 3)},
	} {
		s, err := New(Config{Store: testDataset(t, 2), Steer: c.steer, Tools: c.tools})
		if (err == nil) != c.ok {
			t.Errorf("%s: New returned %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		if st := s.Env().Steer(); st != (env.SteerState{Params: c.steer}) {
			t.Errorf("%s: steering seeded as %+v", c.name, st)
		}
		for i, got := range s.Env().Tools() {
			if got != (env.ToolState{Params: c.tools[i]}) {
				t.Errorf("%s: tool %d seeded as %+v, want %+v", c.name, i, got, c.tools[i])
			}
		}
	}
}

func TestHello(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 4)})
	out, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV1))
	if err != nil {
		t.Fatal(err)
	}
	codec, info, err := wire.DecodeHelloReply(out)
	if err != nil {
		t.Fatal(err)
	}
	if codec != wire.CodecV1 {
		t.Errorf("codec = %d, want %d", codec, wire.CodecV1)
	}
	if info.NI != 16 || info.NK != 8 || info.NumSteps != 4 {
		t.Errorf("info = %+v", info)
	}
	if info.BoundsMax.X != 15 {
		t.Errorf("bounds = %v", info.BoundsMax)
	}
}

func TestAddRakeAndStreamlines(t *testing.T) {
	s, c, _ := startTestServer(t, Config{Store: testDataset(t, 4)})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(1, 4, 4), P1: vmath.V3(1, 12, 4),
		NumSeeds: 5, Tool: uint8(integrate.ToolStreamline),
	}}})
	// Commands apply before compute in the same call.
	if len(r.Rakes) != 1 {
		t.Fatalf("rakes = %d", len(r.Rakes))
	}
	if len(r.Geometry) != 1 {
		t.Fatalf("geometry = %d", len(r.Geometry))
	}
	lines := r.Geometry[0].Lines
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) < 10 {
			t.Fatalf("short streamline: %d points", len(l))
		}
		// Uniform +X drift: physical x increases monotonically.
		for p := 1; p < len(l); p++ {
			if l[p].X <= l[p-1].X {
				t.Fatalf("streamline not advancing in +X at %d", p)
			}
		}
	}
	if st := s.Stats(); st.Frames == 0 || st.Points == 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
}

func TestFrameCachingSharedRounds(t *testing.T) {
	// Two clients in the same round get identical geometry and the
	// server computes once.
	s, c1, addr := startTestServer(t, Config{Store: testDataset(t, 4)})
	c2, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	frame(t, c1, wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(1, 8, 4), P1: vmath.V3(1, 10, 4),
		NumSeeds: 2, Tool: uint8(integrate.ToolStreamline),
	}}})
	framesAfterFirst := s.Stats().Frames
	// c2's first call joins the existing round: no recompute.
	frame(t, c2, wire.ClientUpdate{})
	if got := s.Stats().Frames; got != framesAfterFirst {
		t.Errorf("second client forced recompute: %d -> %d", framesAfterFirst, got)
	}
	// c1 calling again starts a new round.
	frame(t, c1, wire.ClientUpdate{})
	if got := s.Stats().Frames; got != framesAfterFirst+1 {
		t.Errorf("new round did not recompute: %d", got)
	}
}

func TestRakeConflictAcrossClients(t *testing.T) {
	_, c1, addr := startTestServer(t, Config{Store: testDataset(t, 4)})
	c2, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	r := frame(t, c1, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdAddRake, P0: vmath.V3(1, 8, 4), P1: vmath.V3(3, 8, 4),
			NumSeeds: 2, Tool: uint8(integrate.ToolStreamline)},
	}})
	rakeID := r.Rakes[0].ID

	// c1 grabs.
	r = frame(t, c1, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdGrab, Rake: rakeID, Grab: uint8(integrate.GrabCenter)},
	}})
	holder := r.Rakes[0].Holder
	if holder == 0 {
		t.Fatal("grab did not take")
	}
	// c2 tries to grab and move: ignored, c1 still holds.
	r = frame(t, c2, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdGrab, Rake: rakeID, Grab: uint8(integrate.GrabCenter)},
		{Kind: wire.CmdMove, Rake: rakeID, Pos: vmath.V3(99, 99, 99)},
	}})
	if r.Rakes[0].Holder != holder {
		t.Errorf("holder changed to %d", r.Rakes[0].Holder)
	}
	if r.Rakes[0].P0.X > 50 {
		t.Error("locked rake moved by second user")
	}
	// c1 moves it, then releases; c2 can now grab.
	frame(t, c1, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdMove, Rake: rakeID, Pos: vmath.V3(5, 8, 4)},
		{Kind: wire.CmdRelease, Rake: rakeID},
	}})
	r = frame(t, c2, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdGrab, Rake: rakeID, Grab: uint8(integrate.GrabEnd0)},
	}})
	if r.Rakes[0].Holder == holder || r.Rakes[0].Holder == 0 {
		t.Errorf("second user could not grab after release: holder=%d", r.Rakes[0].Holder)
	}
}

func TestDisconnectReleasesLocks(t *testing.T) {
	s, c1, addr := startTestServer(t, Config{Store: testDataset(t, 4)})
	c2, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	r := frame(t, c2, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdAddRake, P0: vmath.V3(1, 8, 4), P1: vmath.V3(3, 8, 4),
			NumSeeds: 2, Tool: uint8(integrate.ToolStreamline)},
	}})
	rakeID := r.Rakes[0].ID
	frame(t, c2, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdGrab, Rake: rakeID, Grab: uint8(integrate.GrabCenter)},
	}})
	c2.Close()
	// Poll until the disconnect hook runs.
	ok := false
	for i := 0; i < 200; i++ {
		snap, found := s.Env().Rake(rakeID)
		if found && snap.Holder == 0 {
			ok = true
			break
		}
		frame(t, c1, wire.ClientUpdate{})
	}
	if !ok {
		t.Error("rake lock survived disconnect")
	}
}

func TestTimeControlCommands(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 10)})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetPlaying, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 2},
	}})
	if !r.Time.Playing || r.Time.Speed != 2 {
		t.Fatalf("time state %+v", r.Time)
	}
	cur := r.Time.Current
	r = frame(t, c, wire.ClientUpdate{})
	if r.Time.Current <= cur {
		t.Errorf("time did not advance: %v -> %v", cur, r.Time.Current)
	}
	r = frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetPlaying, Flag: 0},
		{Kind: wire.CmdSeek, Value: 7},
	}})
	if r.Time.Current != 7 || r.Time.Playing {
		t.Errorf("after stop+seek: %+v", r.Time)
	}
}

func TestStreaklineAccumulates(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 6)})
	add := wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(1, 6, 4), P1: vmath.V3(1, 10, 4),
		NumSeeds: 3, Tool: uint8(integrate.ToolStreakline),
	}}}
	r := frame(t, c, add)
	first := r.TotalPoints()
	for i := 0; i < 4; i++ {
		r = frame(t, c, wire.ClientUpdate{})
	}
	if r.TotalPoints() <= first {
		t.Errorf("streak did not accumulate: %d -> %d", first, r.TotalPoints())
	}
	if len(r.Geometry) != 1 || len(r.Geometry[0].Lines) != 3 {
		t.Fatalf("streak geometry shape: %d lines", len(r.Geometry[0].Lines))
	}
}

func TestParticlePathTool(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 20)})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(1, 8, 4), P1: vmath.V3(1, 9, 4),
		NumSeeds: 2, Tool: uint8(integrate.ToolParticlePath),
	}}})
	if len(r.Geometry) != 1 {
		t.Fatalf("geometry = %d", len(r.Geometry))
	}
	for _, l := range r.Geometry[0].Lines {
		if len(l) < 5 {
			t.Errorf("particle path too short: %d", len(l))
		}
	}
}

func TestDiskBackedServerWithPrefetch(t *testing.T) {
	dir := t.TempDir()
	mem := testDataset(t, 6)
	if err := store.WriteDataset(dir, mem.Unsteady()); err != nil {
		t.Fatal(err)
	}
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := startTestServer(t, Config{Store: disk, Prefetch: true})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdAddRake, P0: vmath.V3(1, 8, 4), P1: vmath.V3(1, 10, 4),
			NumSeeds: 2, Tool: uint8(integrate.ToolStreamline)},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}})
	for i := 0; i < 8; i++ {
		r = frame(t, c, wire.ClientUpdate{})
	}
	if r.TotalPoints() == 0 {
		t.Error("no geometry from disk-backed server")
	}
}

func TestBadPayloadRejected(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 2)})
	if _, err := c.Call(wire.ProcFrame, []byte{1, 2, 3}); err == nil {
		t.Error("garbage payload accepted")
	}
}

func TestDiskBackedParticlePathsUseWindow(t *testing.T) {
	dir := t.TempDir()
	mem := testDataset(t, 12)
	if err := store.WriteDataset(dir, mem.Unsteady()); err != nil {
		t.Fatal(err)
	}
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := startTestServer(t, Config{Store: disk})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(1, 8, 4), P1: vmath.V3(1, 9, 4),
		NumSeeds: 2, Tool: uint8(integrate.ToolParticlePath),
	}}})
	if len(r.Geometry) != 1 {
		t.Fatalf("geometry = %d", len(r.Geometry))
	}
	for _, l := range r.Geometry[0].Lines {
		if len(l) < 5 {
			t.Errorf("disk-backed particle path too short: %d", len(l))
		}
	}
	// The disk was hit, but future frames at the same step hit the
	// resident window, not the disk, for the repeated path computation.
	loadsBefore, _, _ := disk.Stats()
	frame(t, c, wire.ClientUpdate{})
	frame(t, c, wire.ClientUpdate{})
	loadsAfter, _, _ := disk.Stats()
	if loadsAfter != loadsBefore {
		t.Errorf("paused playback still loading from disk: %d -> %d loads", loadsBefore, loadsAfter)
	}
}

func TestSetToolCommand(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 4)})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{{
		Kind: wire.CmdAddRake,
		P0:   vmath.V3(1, 8, 4), P1: vmath.V3(1, 10, 4),
		NumSeeds: 2, Tool: uint8(integrate.ToolStreamline),
	}}})
	id := r.Rakes[0].ID
	r = frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetTool, Rake: id, Tool: uint8(integrate.ToolStreakline)},
		{Kind: wire.CmdSetSeeds, Rake: id, NumSeeds: 3},
	}})
	if r.Rakes[0].Tool != uint8(integrate.ToolStreakline) {
		t.Errorf("tool = %d after CmdSetTool", r.Rakes[0].Tool)
	}
	if r.Rakes[0].NumSeeds != 3 || len(r.Geometry[0].Lines) != 3 {
		t.Errorf("seeds = %d, %d lines after CmdSetSeeds 3", r.Rakes[0].NumSeeds, len(r.Geometry[0].Lines))
	}
	if r.Geometry[0].Tool != uint8(integrate.ToolStreakline) {
		t.Errorf("geometry tool = %d", r.Geometry[0].Tool)
	}
}
