package server

import (
	"bytes"
	"testing"

	"repro/internal/compute"
	"repro/internal/datasets"
	"repro/internal/env"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// liveSpec is the shared small solver configuration for the live
// battery: big enough to develop real flow, small enough to run the
// solver twice per test.
func liveSpec() (datasets.Spec, datasets.SolverOptions) {
	return datasets.Spec{NI: 12, NJ: 12, NK: 6, NumSteps: 6, DT: 0.2},
		datasets.SolverOptions{Resolution: 16, SpinupSteps: 6, Workers: 2}
}

// boundsAt maps box fractions to a point in the grid's physical bounds:
// rake endpoints for grids whose extent depends on the Spec.
func boundsAt(g *grid.Grid, fx, fy, fz float32) vmath.Vec3 {
	b := g.Bounds()
	d := b.Max.Sub(b.Min)
	return b.Min.Add(vmath.V3(d.X*fx, d.Y*fy, d.Z*fz))
}

// replayServer runs the offline pipeline: solve the full dataset, spill
// it to disk, and serve it back through the streaming path — the
// pre-live workflow the differential pins the live mode against.
func replayServer(t *testing.T, spec datasets.Spec, sopts datasets.SolverOptions, cfg Config) *Server {
	t.Helper()
	u, err := datasets.Solver(spec, sopts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.WriteDataset(dir, u); err != nil {
		t.Fatal(err)
	}
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = disk
	cfg.Clock = netsim.NewManualClock()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// liveServer runs the in-situ pipeline: the same solver coupled as a
// ring producer behind the server, with the steering source wired the
// way core.ServeLive wires it.
func liveServer(t *testing.T, spec datasets.Spec, sopts datasets.SolverOptions, window int, cfg Config) (*Server, *datasets.Live) {
	t.Helper()
	lv, err := datasets.NewLive(spec, datasets.LiveOptions{Solver: sopts, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	def := datasets.DefaultSteer()
	cfg.Store = lv.Ring()
	cfg.Clock = netsim.NewManualClock()
	cfg.Steer = env.SteerParams{InflowU: def.InflowU, Reynolds: def.Reynolds, Taper: def.Taper}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := s.Env()
	lv.SetSteerSource(func() (datasets.Steering, uint64) {
		st := e.Steer()
		return datasets.Steering{
			InflowU:  st.Params.InflowU,
			Reynolds: st.Params.Reynolds,
			Taper:    st.Params.Taper,
		}, st.Version
	})
	return s, lv
}

// liveScenario is the frozen-steering flight plan both servers fly: one
// rake per tool (streamlines, particle paths, streaklines — the last
// two reach across the history window), looping playback, then empty
// rounds that walk the clock through every timestep and around the
// loop.
func liveScenario(g *grid.Grid, frames int) []wire.ClientUpdate {
	b := g.Bounds()
	at := func(fx, fy, fz float32) vmath.Vec3 {
		d := b.Max.Sub(b.Min)
		return b.Min.Lerp(b.Max, 0).Add(vmath.V3(d.X*fx, d.Y*fy, d.Z*fz))
	}
	updates := []wire.ClientUpdate{{Commands: []wire.Command{
		addRakeCmd(at(0.6, 0.35, 0.5), at(0.6, 0.55, 0.5), 3, integrate.ToolStreamline),
		addRakeCmd(at(0.55, 0.4, 0.4), at(0.55, 0.6, 0.4), 3, integrate.ToolParticlePath),
		addRakeCmd(at(0.5, 0.45, 0.6), at(0.5, 0.65, 0.6), 3, integrate.ToolStreakline),
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}}}
	for len(updates) < frames {
		updates = append(updates, wire.ClientUpdate{})
	}
	return updates
}

// TestLiveDifferentialReplay is the coupling differential: a live
// in-situ server with frozen steering must be byte-identical, frame by
// frame, to the offline solve-then-replay server — for the classic v1
// codec and for the stateful delta v2 codec. Any drift in solver
// sequencing, ring recycling, clamping, or steering initialization
// shows up here as a byte mismatch.
func TestLiveDifferentialReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver four times")
	}
	spec, sopts := liveSpec()

	t.Run("v1", func(t *testing.T) {
		replay := replayServer(t, spec, sopts, Config{})
		live, lv := liveServer(t, spec, sopts, spec.NumSteps, Config{})
		dr := newDirectSession(t, replay, 1)
		dl := newDirectSession(t, live, 1)
		for i, u := range liveScenario(replay.src.Grid(), 9) {
			want := dr.rawFrame(u)
			got := dl.rawFrame(u)
			if !bytes.Equal(want, got) {
				t.Fatalf("frame %d: live bytes diverge from replay (%d vs %d bytes)",
					i, len(got), len(want))
			}
		}
		// Frozen steering must never have touched the solver.
		if n := len(lv.AppliedSteer()); n != 0 {
			t.Fatalf("frozen steering applied %d parameter changes", n)
		}
	})

	t.Run("v2", func(t *testing.T) {
		replay := replayServer(t, spec, sopts, Config{})
		live, _ := liveServer(t, spec, sopts, spec.NumSteps, Config{})
		vr := newV2Session(t, replay, 1)
		vl := newV2Session(t, live, 1)
		if vr.info != vl.info {
			t.Fatalf("dataset info diverges: %+v vs %+v", vl.info, vr.info)
		}
		for i, u := range liveScenario(replay.src.Grid(), 9) {
			want := vr.rawFrame(u)
			got := vl.rawFrame(u)
			if !bytes.Equal(want, got) {
				t.Fatalf("v2 frame %d: live bytes diverge from replay (%d vs %d bytes)",
					i, len(got), len(want))
			}
			// Both streams must also decode through the stateful
			// decoder (delta bases line up frame over frame).
			if _, err := vr.dec.Decode(want); err != nil {
				t.Fatalf("v2 frame %d: replay decode: %v", i, err)
			}
			if _, err := vl.dec.Decode(got); err != nil {
				t.Fatalf("v2 frame %d: live decode: %v", i, err)
			}
		}
	})
}

// TestLiveRingHoldsPathStartLevel: particle paths start sampling at
// level int(Current), one below the served step whenever playback
// rounded time up (speed 1.5 does every other round). A tight live ring
// must hold that level while the paths drive production past its
// window: every frame equals the replay's byte for byte, and under
// -race no Publish recycles a buffer a pool worker's kernel is reading.
func TestLiveRingHoldsPathStartLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver twice")
	}
	spec, sopts := liveSpec()
	spec.NumSteps = 40
	opts := integrate.DefaultOptions()
	opts.MaxSteps = 20
	cfg := Config{Options: opts, Engine: compute.Parallel{NumWorkers: 2}}
	replay := replayServer(t, spec, sopts, cfg)
	live, lv := liveServer(t, spec, sopts, 2, cfg)
	g := replay.src.Grid()
	updates := []wire.ClientUpdate{{Commands: []wire.Command{
		addRakeCmd(boundsAt(g, 0.55, 0.3, 0.4), boundsAt(g, 0.55, 0.7, 0.4), 16, integrate.ToolParticlePath),
		addRakeCmd(boundsAt(g, 0.6, 0.3, 0.6), boundsAt(g, 0.6, 0.7, 0.6), 16, integrate.ToolParticlePath),
		{Kind: wire.CmdSetSpeed, Value: 1.5},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}}}
	for len(updates) < 20 {
		updates = append(updates, wire.ClientUpdate{})
	}
	dr, dl := newDirectSession(t, replay, 1), newDirectSession(t, live, 1)
	for i, u := range updates {
		want, got := dr.rawFrame(u), dl.rawFrame(u)
		if !bytes.Equal(want, got) {
			t.Fatalf("frame %d: live bytes diverge from replay (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if rs := lv.Ring().Stats(); rs.Recycled == 0 || rs.Clamped != 0 {
		t.Errorf("ring %+v: want buffers recycled and no step clamped", rs)
	}
	if n := live.Stats().PathLoadFailures; n != 0 {
		t.Errorf("%d paths stopped for a recycled level", n)
	}
}

// TestLiveServerBypassesCache pins the wiring audit from the store
// refactor: a ring-backed server must not wrap the ring in the shared
// timestep cache or its prefetcher — both hold bare field pointers that
// the ring's buffer recycling would corrupt. The observable contract:
// cache stats report absent even when a cache was requested, and every
// round reads the ring itself.
func TestLiveServerBypassesCache(t *testing.T) {
	g, err := grid.NewCartesian(8, 8, 4, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(7, 7, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := store.NewRing(g, 0.1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: ring, CacheSteps: 4, CacheBytes: 1 << 20, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CacheStats(); ok {
		t.Error("ring-backed server built a timestep cache over recycled buffers")
	}
	if s.src != store.Source(ring) {
		t.Errorf("ring-backed server reads through %T", s.src)
	}
	if _, err := store.NewCache(ring, store.CacheOptions{}); err == nil {
		t.Error("a cache accepted a live ring as its source")
	}
}

// TestLiveSteeringChangesFlow drives the full steering loop end to
// end: grab the lock through the wire, push a parameter change, and
// watch the produced flow diverge from the frozen baseline — while
// every change lands in the solver as one atomic triple.
func TestLiveSteeringChangesFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver twice")
	}
	spec, sopts := liveSpec()
	run := func(steer bool) ([][]byte, *datasets.Live) {
		s, lv := liveServer(t, spec, sopts, spec.NumSteps, Config{})
		d := newDirectSession(t, s, 1)
		b := s.src.Grid().Bounds()
		p0 := b.Min.Lerp(b.Max, 0.4)
		p1 := b.Min.Lerp(b.Max, 0.6)
		var frames [][]byte
		frames = append(frames, d.rawFrame(wire.ClientUpdate{Commands: []wire.Command{
			addRakeCmd(p0, p1, 4, integrate.ToolStreamline),
			{Kind: wire.CmdSetSpeed, Value: 1},
			{Kind: wire.CmdSetPlaying, Flag: 1},
		}}))
		for i := 0; i < 2; i++ {
			frames = append(frames, d.rawFrame(wire.ClientUpdate{}))
		}
		if steer {
			frames = append(frames, d.rawFrame(wire.ClientUpdate{Commands: []wire.Command{
				{Kind: wire.CmdSteerGrab},
				{Kind: wire.CmdSteer, P0: vmath.V3(3, 250, 1.2)},
			}}))
		} else {
			frames = append(frames, d.rawFrame(wire.ClientUpdate{}))
		}
		for i := 0; i < 2; i++ {
			frames = append(frames, d.rawFrame(wire.ClientUpdate{}))
		}
		return frames, lv
	}

	base, baseLv := run(false)
	steered, lv := run(true)
	if len(lv.AppliedSteer()) == 0 {
		t.Fatal("steering change never reached the solver")
	}
	for _, ap := range lv.AppliedSteer() {
		if ap != (datasets.Steering{InflowU: 3, Reynolds: 250, Taper: 1.2}) {
			t.Fatalf("torn steering application: %+v", ap)
		}
	}
	if n := len(baseLv.AppliedSteer()); n != 0 {
		t.Fatalf("unsteered run applied %d changes", n)
	}
	// Pre-steer frames are identical; from the steer frame on, the flow
	// diverges. (Looping playback may revisit pre-steer steps — those
	// are sealed in the ring and stay identical by design, so the
	// assertion is "any post-steer frame differs", not "all".)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(base[i], steered[i]) {
			t.Fatalf("pre-steer frame %d differs between runs", i)
		}
	}
	diverged := false
	for i := 3; i < len(base); i++ {
		if !bytes.Equal(base[i], steered[i]) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("steering InflowU 1 -> 3 left every produced frame unchanged")
	}
}
