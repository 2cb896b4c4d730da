package server

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compute"
	"repro/internal/datasets"
	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// countingEngine counts geometry computations per tool, to observe the
// dirty-rake memoization from outside.
type countingEngine struct {
	inner       compute.Engine
	streamlines atomic.Int64
	paths       atomic.Int64
}

func (e *countingEngine) Name() string { return "counting" }
func (e *countingEngine) Workers() int { return e.inner.Workers() }

func (e *countingEngine) Streamlines(s integrate.Sampler, seeds []vmath.Vec3, t float32, o integrate.Options) ([][]vmath.Vec3, compute.Stats) {
	e.streamlines.Add(1)
	return e.inner.Streamlines(s, seeds, t, o)
}

func (e *countingEngine) ParticlePaths(s integrate.Sampler, seeds []vmath.Vec3, t0, maxTime float32, o integrate.Options) ([][]vmath.Vec3, compute.Stats) {
	e.paths.Add(1)
	return e.inner.ParticlePaths(s, seeds, t0, maxTime, o)
}

func addRakeCmd(p0, p1 vmath.Vec3, seeds uint32, tool integrate.ToolKind) wire.Command {
	return wire.Command{Kind: wire.CmdAddRake, P0: p0, P1: p1, NumSeeds: seeds, Tool: uint8(tool)}
}

// TestMemoizationSkipsCleanRakes pins the tentpole invariant: a
// steady-state frame with N unchanged streamline rakes recomputes no
// rake at all, and moving one rake recomputes exactly that rake.
func TestMemoizationSkipsCleanRakes(t *testing.T) {
	eng := &countingEngine{inner: compute.Scalar{}}
	s, c, _ := startTestServer(t, Config{Store: testDataset(t, 4), Engine: eng})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 6, 4), 3, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 8, 4), vmath.V3(1, 10, 4), 3, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 11, 4), vmath.V3(1, 13, 4), 3, integrate.ToolStreamline),
	}})
	if len(r.Rakes) != 3 {
		t.Fatalf("rakes = %d", len(r.Rakes))
	}
	if got := eng.streamlines.Load(); got != 3 {
		t.Fatalf("first frame computed %d rakes, want 3", got)
	}

	// Steady frames (paused playback, no commands, same pose): every
	// rake input is unchanged, so the engine must not be called.
	for i := 0; i < 5; i++ {
		frame(t, c, wire.ClientUpdate{})
	}
	if got := eng.streamlines.Load(); got != 3 {
		t.Errorf("steady frames recomputed: %d engine calls, want 3", got)
	}
	st := s.Stats()
	if st.FramesReused == 0 {
		t.Errorf("no whole-frame reuse recorded: %+v", st)
	}

	// Moving one rake dirties only that rake.
	id := r.Rakes[1].ID
	frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdGrab, Rake: id, Grab: uint8(integrate.GrabCenter)},
	}})
	grabCalls := eng.streamlines.Load() // grab changes holder, not geometry inputs
	frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdMove, Rake: id, Pos: vmath.V3(2, 9, 4)},
	}})
	if got := eng.streamlines.Load(); got != grabCalls+1 {
		t.Errorf("move-one recomputed %d rakes, want 1", got-grabCalls)
	}
	st = s.Stats()
	if st.RakesReused == 0 {
		t.Errorf("no per-rake reuse recorded: %+v", st)
	}
}

// rawFrame runs ProcFrame and returns the encoded reply bytes.
func rawFrame(t *testing.T, c *dlib.Client, u wire.ClientUpdate) []byte {
	t.Helper()
	out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stripNanos zeroes the ComputeNanos/LoadNanos/Round span (bytes
// [14,38) of the reply: after the 14-byte time status) — the only
// per-round volatile content in a FrameReply. Nanos are wall-clock;
// Round is the recompute counter, which by design differs between two
// separate recomputes of identical inputs.
func stripNanos(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) < 38 {
		t.Fatalf("reply too short: %d bytes", len(b))
	}
	out := bytes.Clone(b)
	for i := 14; i < 38; i++ {
		out[i] = 0
	}
	return out
}

// TestFrameBytesDeterministic pins byte-level determinism: identical
// frames encode byte-identically, both on the whole-frame memo path
// (exact equality) and across full recomputes with identical inputs
// (equality outside the wall-clock nanos span). This depends on
// reply.Users being sorted — map-ordered users made encodes flap.
func TestFrameBytesDeterministic(t *testing.T) {
	s, c, addr := startTestServer(t, Config{Store: testDataset(t, 4)})
	c2, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	pose := wire.ClientUpdate{Hand: vmath.V3(1, 2, 3)}
	rawFrame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 12, 4), 4, integrate.ToolStreamline),
	}})
	// Second user joins so the Users list has two entries to order.
	rawFrame(t, c2, wire.ClientUpdate{})

	// Steady frames: served from the whole-frame memo, byte-identical
	// including the nanos.
	a := rawFrame(t, c, pose)
	b := rawFrame(t, c, pose)
	if !bytes.Equal(a, b) {
		t.Error("steady frames differ")
	}

	// Alternating poses force full recomputes; the two frames with
	// pose P have identical inputs and must encode identically outside
	// the nanos span.
	other := wire.ClientUpdate{Hand: vmath.V3(9, 9, 9)}
	p1 := rawFrame(t, c, pose)
	rawFrame(t, c, other)
	p2 := rawFrame(t, c, pose)
	if bytes.Equal(p1, p2) {
		// Same bytes means the recompute was skipped; the point is to
		// compare recomputed encodes, so flag a broken premise.
		t.Log("note: recomputed frames were identical including nanos")
	}
	if !bytes.Equal(stripNanos(t, p1), stripNanos(t, p2)) {
		t.Error("recomputed frames with identical inputs differ beyond nanos")
	}

	// Encode-once fan-out: a second session served within the same
	// round receives exactly the bytes the first session got — nanos
	// and round counter included — and no second encode happens.
	encodedBefore := s.Stats().FramesEncoded
	// A fresh pose forces a true recompute (same pose would serve the
	// whole-frame memo without encoding).
	f1 := rawFrame(t, c, wire.ClientUpdate{Hand: vmath.V3(7, 7, 7)})
	f2 := rawFrame(t, c2, wire.ClientUpdate{Hand: vmath.V3(5, 5, 5)}) // joins that round
	if !bytes.Equal(f1, f2) {
		t.Error("two sessions in one round got different payloads")
	}
	if got := s.Stats().FramesEncoded - encodedBefore; got != 1 {
		t.Errorf("round fan-out encoded %d times, want 1", got)
	}
	r1, err := wire.DecodeFrameReply(f1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := wire.DecodeFrameReply(f2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Round != r2.Round {
		t.Errorf("rounds differ: %d vs %d", r1.Round, r2.Round)
	}
	// And once c2 consumes its own next frame, the round advances for
	// it — the Round counter is strictly increasing across recomputes.
	f3 := rawFrame(t, c2, wire.ClientUpdate{Hand: vmath.V3(6, 6, 6)})
	r3, err := wire.DecodeFrameReply(f3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Round <= r2.Round {
		t.Errorf("round did not advance: %d then %d", r2.Round, r3.Round)
	}
}

// TestFrameBytesDeterministicGloveInput extends the byte-identity
// invariant to the full input path: two servers driven by same-seed
// scripted users (noisy glove fibers, noisy Polhemus tracker, boom
// head sweep) see identical sensed poses — all device noise comes from
// injected seeded streams, never the global math/rand — and therefore
// encode every frame byte-identically outside the nanos span.
func TestFrameBytesDeterministicGloveInput(t *testing.T) {
	run := func() [][]byte {
		_, c, _ := startTestServer(t, Config{Store: testDataset(t, 4)})
		u, err := vr.NewScriptedUser(42)
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		for i := 0; i < 30; i++ {
			p := u.Step()
			upd := wire.ClientUpdate{Head: p.Head, Hand: p.Hand, Gesture: uint8(p.Gesture)}
			if i == 0 {
				upd.Commands = []wire.Command{
					addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 12, 4), 4, integrate.ToolStreamline),
				}
			}
			frames = append(frames, stripNanos(t, rawFrame(t, c, upd)))
		}
		return frames
	}
	a, b := run(), run()
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("glove-driven frame %d differs between same-seed runs", i)
		}
	}
}

// TestSeedCountClamped pins the server-side clamp: a hostile seed
// count cannot make the server integrate an unbounded workload.
func TestSeedCountClamped(t *testing.T) {
	_, c, _ := startTestServer(t, Config{Store: testDataset(t, 2), MaxSeedsPerRake: 8})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 12, 4), 4_000_000_000, integrate.ToolStreamline),
	}})
	if len(r.Rakes) != 1 || r.Rakes[0].NumSeeds != 8 {
		t.Fatalf("rake seeds = %+v, want clamp to 8", r.Rakes)
	}
	if got := len(r.Geometry[0].Lines); got != 8 {
		t.Errorf("geometry lines = %d, want 8", got)
	}
	// CmdSetSeeds goes through the same clamp.
	r = frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetSeeds, Rake: r.Rakes[0].ID, NumSeeds: 100},
	}})
	if r.Rakes[0].NumSeeds != 8 {
		t.Errorf("SetSeeds escaped the clamp: %d", r.Rakes[0].NumSeeds)
	}
}

// TestPrefetchSkipsAtBoundary pins the boundary fix: non-loop playback
// sitting at the last timestep must not issue out-of-range prefetches.
func TestPrefetchSkipsAtBoundary(t *testing.T) {
	st := &playStore{Store: testDataset(t, 3)}
	s, c, _ := startTestServer(t, Config{Store: st, Prefetch: true})
	frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 8, 4), vmath.V3(1, 10, 4), 2, integrate.ToolStreamline),
		{Kind: wire.CmdSetPlaying, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetLoop, Flag: 0},
	}})
	// Play past the end: time clamps at the last step.
	for i := 0; i < 6; i++ {
		frame(t, c, wire.ClientUpdate{})
	}
	r := frame(t, c, wire.ClientUpdate{})
	if want := float32(2); r.Time.Current != want {
		t.Fatalf("time = %v, want clamped at %v", r.Time.Current, want)
	}
	s.src.(*store.Cache).Wait()
	fg, bg := st.take()
	// More boundary frames, forced to recompute (pose changes) so the
	// prefetch branch actually runs with next == NumSteps.
	for i := 0; i < 4; i++ {
		frame(t, c, wire.ClientUpdate{Hand: vmath.V3(float32(i), 0, 0)})
	}
	s.src.(*store.Cache).Wait()
	if fg2, bg2 := st.take(); fg2+bg2 != 0 {
		t.Errorf("boundary frames read %d+%d steps", fg2, bg2)
	}
	// At the boundary the play wants its last step and nothing after
	// it, and the dataset was read at most once on the way there.
	if cs, _ := s.CacheStats(); cs.WantedSteps != 1 || fg+bg > 3 {
		t.Errorf("%d steps wanted at the last step, %d+%d read of a 3-step dataset", cs.WantedSteps, fg, bg)
	}
}

// TestPointsShippedDefinition pins Stats.Points to the §5.3 quantity:
// exactly the points that go on the wire, for every tool identically.
func TestPointsShippedDefinition(t *testing.T) {
	for _, tool := range []integrate.ToolKind{
		integrate.ToolStreamline, integrate.ToolParticlePath, integrate.ToolStreakline,
	} {
		t.Run(tool.String(), func(t *testing.T) {
			s, c, _ := startTestServer(t, Config{Store: testDataset(t, 8)})
			r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
				addRakeCmd(vmath.V3(1, 6, 4), vmath.V3(1, 10, 4), 3, tool),
			}})
			if got, want := s.Stats().Points, int64(r.TotalPoints()); got != want {
				t.Errorf("Stats.Points = %d, reply ships %d", got, want)
			}
			before := s.Stats().Points
			r = frame(t, c, wire.ClientUpdate{})
			if got, want := s.Stats().Points-before, int64(r.TotalPoints()); got != want {
				t.Errorf("second round Points delta = %d, reply ships %d", got, want)
			}
		})
	}
}

// TestSteadyFrameAllocs pins the allocation budget: once rakes exist
// and playback is paused, a frame must run in near-zero steady-state
// allocation (the whole-frame memo path), and the head-tracked regime
// (pose changes every frame, rakes clean) must stay within a small
// fixed budget.
func TestSteadyFrameAllocs(t *testing.T) {
	s, err := New(Config{Store: testDataset(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &dlib.Ctx{Session: &dlib.Session{ID: 1}}
	call := func(payload []byte) error {
		_, err := s.handleFrame(ctx, payload)
		return err
	}
	add := wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 12, 4), 8, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(2, 4, 4), vmath.V3(2, 12, 4), 8, integrate.ToolStreamline),
	}})
	if err := call(add); err != nil {
		t.Fatal(err)
	}
	steady := wire.EncodeClientUpdate(wire.ClientUpdate{})
	// Warm the scratch buffers.
	for i := 0; i < 3; i++ {
		if err := call(steady); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := call(steady); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("steady frame allocates %.0f times, budget 4", got)
	}

	// Head-tracked: pose differs every frame, forcing re-encode but no
	// rake recompute. Alternate two poses so every run recomputes.
	poseA := wire.EncodeClientUpdate(wire.ClientUpdate{Hand: vmath.V3(1, 0, 0)})
	poseB := wire.EncodeClientUpdate(wire.ClientUpdate{Hand: vmath.V3(2, 0, 0)})
	flip := false
	for i := 0; i < 4; i++ {
		p := poseA
		if flip {
			p = poseB
		}
		flip = !flip
		if err := call(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		p := poseA
		if flip {
			p = poseB
		}
		flip = !flip
		if err := call(p); err != nil {
			t.Fatal(err)
		}
	}); got > 16 {
		t.Errorf("head-tracked frame allocates %.0f times, budget 16", got)
	}
}

// TestToolRelevelAllocs pins the recycling contract of the tools' half
// of the round: once warm, re-levelling the isosurface on a new
// timestep — derive the physical velocity and speed, count, fill, write
// the segment, assemble the reply — allocates a small constant, and the
// constant does not grow with the surface. (It used to cost a Field, a
// speed array, per-slab triangle parts and their concatenation: the
// more triangles, the more garbage.)
func TestToolRelevelAllocs(t *testing.T) {
	for _, codec := range []uint8{wire.CodecV1, wire.CodecV2} {
		s, err := New(Config{Store: toolDataset(t, 4), Engine: compute.Parallel{NumWorkers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &dlib.Ctx{Session: &dlib.Session{ID: 1}}
		if codec == wire.CodecV2 {
			if _, err := s.handleHello2(ctx, wire.EncodeHelloRequest(codec)); err != nil {
				t.Fatal(err)
			}
		}
		call := func(payload []byte) {
			if _, err := s.handleFrame(ctx, payload); err != nil {
				t.Fatal(err)
			}
		}
		call(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{{Kind: wire.CmdIsoGrab}}}))
		// relevel alternates between two timesteps and two levels of
		// about the same surface size, so every call derives and marches.
		relevel := func(levels [2]float32) (allocs float64, triangles int64) {
			var payloads [2][]byte
			for i, level := range levels {
				payloads[i] = wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{
					{Kind: wire.CmdSeek, Value: float32(i)},
					{Kind: wire.CmdIsoSet, Flag: 1, Value: level},
				}})
			}
			n := 0
			step := func() { call(payloads[n%2]); n++ }
			for i := 0; i < 4; i++ {
				step()
			}
			before := s.Stats()
			allocs = testing.AllocsPerRun(20, step)
			after := s.Stats()
			if got := after.ToolsComputed - before.ToolsComputed; got != 21 {
				t.Fatalf("codec %d: %d relevels in 21 calls", codec, got)
			}
			return allocs, (after.ToolPoints - before.ToolPoints) / 3 / 21
		}
		small, smallTris := relevel([2]float32{1.42, 1.44})
		large, largeTris := relevel([2]float32{0.9, 0.95})
		t.Logf("codec %d: %.0f allocs at %d triangles, %.0f at %d", codec, small, smallTris, large, largeTris)
		if smallTris == 0 || largeTris < 4*smallTris {
			t.Fatalf("codec %d: surfaces of %d and %d triangles do not tell small from large", codec, smallTris, largeTris)
		}
		const budget = 8
		if small > budget || large > budget {
			t.Errorf("codec %d: a relevel allocates %.0f times at %d triangles and %.0f at %d, budget %d",
				codec, small, smallTris, large, largeTris, budget)
		}
	}
}

// BenchmarkToolRelevel times the tools' half of a heavy round on the
// benchmark's small dataset grid (32x48x12, benchmark/workloads.go): the
// isosurface re-levelled on a new timestep — physical velocity and
// speed derived, the surface counted and filled, its v2 segment written
// — as one recompute with no rake dirty and no reply assembled.
func BenchmarkToolRelevel(b *testing.B) {
	u, err := datasets.Analytic(datasets.Spec{NI: 32, NJ: 48, NK: 12, NumSteps: 2, DT: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Store: store.NewMemory(u)})
	if err != nil {
		b.Fatal(err)
	}
	s.wantSegs = true
	s.env.GrabTool(1, env.ToolIso)
	relevel := func(i int) {
		s.env.SeekTime(float32(i % 2))
		s.env.SetTool(1, env.ToolIso, env.ToolParams{Enabled: true, Value: 0.7 + 0.08*float32(i%8)})
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.recomputeLocked(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		relevel(i)
	}
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relevel(i)
	}
	b.StopTimer()
	after := s.Stats()
	if got := after.SegmentsEncoded - before.SegmentsEncoded; got != int64(b.N) {
		b.Fatalf("%d segments written in %d relevels", got, b.N)
	}
	b.ReportMetric(float64(after.ToolPoints-before.ToolPoints)/3/float64(b.N), "triangles/op")
}

// TestPoolStartsNoGoroutineItCannotFeed: the round's pool starts a
// worker only while there is a unit for it, so a round with one dirty
// rake, or none, runs on the caller alone — it allocates exactly what it
// does on a one-worker server, where no goroutine can be started at all.
func TestPoolStartsNoGoroutineItCannotFeed(t *testing.T) {
	perRound := func(workers int) (oneDirty, noneDirty float64) {
		s, err := New(Config{Store: testDataset(t, 4), Engine: compute.Parallel{NumWorkers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &dlib.Ctx{Session: &dlib.Session{ID: 1}}
		call := func(payload []byte) {
			if _, err := s.handleFrame(ctx, payload); err != nil {
				t.Fatal(err)
			}
		}
		// Three-seed rakes: too few for the engine to split, so only the
		// pool could start a goroutine.
		call(wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{
			addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 12, 4), 3, integrate.ToolStreamline),
			addRakeCmd(vmath.V3(2, 4, 4), vmath.V3(2, 12, 4), 3, integrate.ToolStreamline),
			{Kind: wire.CmdGrab, Rake: 1, Grab: uint8(integrate.GrabCenter)},
		}}))
		var moves, poses [2][]byte
		for i := range moves {
			moves[i] = wire.EncodeClientUpdate(wire.ClientUpdate{Commands: []wire.Command{
				{Kind: wire.CmdMove, Rake: 1, Pos: vmath.V3(1.5+float32(i), 8, 4)},
			}})
			poses[i] = wire.EncodeClientUpdate(wire.ClientUpdate{Hand: vmath.V3(float32(i), 0, 0)})
		}
		n := 0
		measure := func(payloads [2][]byte, wantComputed int64) float64 {
			step := func() { call(payloads[n%2]); n++ }
			for i := 0; i < 4; i++ {
				step()
			}
			before := s.Stats().RakesComputed
			allocs := testing.AllocsPerRun(50, step)
			if got := s.Stats().RakesComputed - before; got != 51*wantComputed {
				t.Fatalf("%d workers: %d rakes recomputed in 51 rounds, want %d a round", workers, got, wantComputed)
			}
			return allocs
		}
		return measure(moves, 1), measure(poses, 0)
	}
	one, none := perRound(1)
	wideOne, wideNone := perRound(8)
	t.Logf("allocs per round: one dirty rake %.0f (1 worker) / %.0f (8), none dirty %.0f / %.0f", one, wideOne, none, wideNone)
	if wideOne != one || wideNone != none {
		t.Errorf("an 8-worker pool allocates %.0f / %.0f times for one / no dirty rake, a 1-worker pool %.0f / %.0f",
			wideOne, wideNone, one, none)
	}
}

// TestEngineRakeAllocs pins the arena contract of the engine the frame
// path runs: one Parallel call on a wide rake allocates a small
// constant number of times — the path table, the tracer, and a few
// arena chunks per worker — and the count does not grow with the seed
// count the way a line per seed did.
func TestEngineRakeAllocs(t *testing.T) {
	mem := testDataset(t, 4)
	g := mem.Grid()
	u := mem.Unsteady()
	steady := compute.SteadyBatch{F: u.Steps[0], G: g}
	unsteady := integrate.UnsteadySampler{U: u}
	o := integrate.DefaultOptions()
	eng := compute.Parallel{NumWorkers: 2}
	const budget = 12
	for _, n := range []int{256, 1024} {
		rake := integrate.Rake{P0: vmath.V3(1, 1, 1), P1: vmath.V3(3, 14, 6), NumSeeds: n}
		seeds := rake.SeedsGrid(g)
		if len(seeds) != n {
			t.Fatalf("%d of %d seeds landed in the grid", len(seeds), n)
		}
		var points int64
		streamlines := testing.AllocsPerRun(20, func() {
			_, st := eng.Streamlines(steady, seeds, 0, o)
			points = st.Points
		})
		paths := testing.AllocsPerRun(20, func() { eng.ParticlePaths(unsteady, seeds, 0, 3, o) })
		if points < int64(20*n) {
			t.Fatalf("%d seeds produced %d points: lines too short to exercise the arenas", n, points)
		}
		t.Logf("%d seeds: %d points, %.0f / %.0f allocs", n, points, streamlines, paths)
		if streamlines > budget || paths > budget {
			t.Errorf("%d seeds: Streamlines allocates %.0f times, ParticlePaths %.0f, budget %d each",
				n, streamlines, paths, budget)
		}
	}
}

// TestConcurrentFramesAndStats is the -race regression for the
// parallel rake pipeline: several clients hammer multi-rake frames
// (forcing concurrent recomputes) while other goroutines read Stats.
func TestConcurrentFramesAndStats(t *testing.T) {
	s, c0, addr := startTestServer(t, Config{Store: testDataset(t, 6), Engine: compute.Parallel{NumWorkers: 4}})
	frame(t, c0, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 6, 4), 4, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 7, 4), vmath.V3(1, 9, 4), 4, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 10, 4), vmath.V3(1, 12, 4), 4, integrate.ToolParticlePath),
		addRakeCmd(vmath.V3(1, 12, 4), vmath.V3(1, 14, 4), 4, integrate.ToolStreakline),
		{Kind: wire.CmdSetPlaying, Flag: 1},
		{Kind: wire.CmdSetLoop, Flag: 1},
	}})

	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Stats().String()
				}
			}
		}()
	}
	const clients, frames = 3, 15
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dlib.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < frames; i++ {
				u := wire.ClientUpdate{Hand: vmath.V3(float32(g), float32(i), 0)}
				out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(u))
				if err != nil {
					t.Errorf("client %d frame %d: %v", g, i, err)
					return
				}
				if _, err := wire.DecodeFrameReply(out); err != nil {
					t.Errorf("client %d frame %d decode: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if st := s.Stats(); st.Frames == 0 || st.RakesComputed == 0 {
		t.Errorf("stats did not accumulate: %+v", st)
	}
}

// TestConcurrentSessionsRakeLocksAndEviction is the -race regression
// for the fan-out + cache combination: >= 8 concurrent sessions
// grabbing, moving, and releasing FCFS rake locks every frame while
// looping playback churns a capacity-2 cache underneath.
func TestConcurrentSessionsRakeLocksAndEviction(t *testing.T) {
	s, err := New(Config{
		Store:      testDiskStore(t, 4, store.DiskOptions{}),
		CacheSteps: 2,
		Engine:     compute.Parallel{NumWorkers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Dlib().Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Dlib().Serve(ln)
	addr := ln.Addr().String()

	// One session builds the scene: a rake per pair of contenders plus
	// looping playback so cache eviction runs under the contention.
	c0, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	setup := wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 6, 4), 2, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 7, 4), vmath.V3(1, 9, 4), 2, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 10, 4), vmath.V3(1, 12, 4), 2, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 12, 4), vmath.V3(1, 14, 4), 2, integrate.ToolStreamline),
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}}
	r := frame(t, c0, setup)
	if len(r.Rakes) != 4 {
		t.Fatalf("setup rakes = %d", len(r.Rakes))
	}
	rakeIDs := make([]int32, len(r.Rakes))
	for i, rk := range r.Rakes {
		rakeIDs[i] = rk.ID
	}

	const sessions = 8
	const frames = 12
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dlib.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rake := rakeIDs[g%len(rakeIDs)]
			for f := 0; f < frames; f++ {
				var cmds []wire.Command
				switch f % 3 {
				case 0:
					cmds = []wire.Command{{Kind: wire.CmdGrab, Rake: rake,
						Grab: uint8(integrate.GrabCenter)}}
				case 1:
					cmds = []wire.Command{{Kind: wire.CmdMove, Rake: rake,
						Pos: vmath.V3(2+float32(g)*0.1, 8+float32(f)*0.1, 4)}}
				default:
					cmds = []wire.Command{{Kind: wire.CmdRelease, Rake: rake}}
				}
				u := wire.ClientUpdate{
					Hand:     vmath.V3(float32(g), float32(f), 0),
					Commands: cmds,
				}
				out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(u))
				if err != nil {
					t.Errorf("session %d frame %d: %v", g, f, err)
					return
				}
				if _, err := wire.DecodeFrameReply(out); err != nil {
					t.Errorf("session %d frame %d decode: %v", g, f, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The environment survived the contention: every rake is still
	// present and grabbable, and the cache stayed within budget.
	r = frame(t, c0, wire.ClientUpdate{})
	if len(r.Rakes) != 4 {
		t.Errorf("rakes after churn = %d, want 4", len(r.Rakes))
	}
	if cs, ok := s.CacheStats(); !ok || cs.ResidentSteps > 2 {
		t.Errorf("cache state after churn: %+v ok=%v", cs, ok)
	}
	if st := s.Stats(); st.FramesShipped < sessions*frames {
		t.Errorf("shipped %d < %d calls", st.FramesShipped, sessions*frames)
	}
}

// TestRemoveRakeDropsCaches pins cache hygiene: removing a rake drops
// its geometry from subsequent frames and its memo entry.
func TestRemoveRakeDropsCaches(t *testing.T) {
	s, c, _ := startTestServer(t, Config{Store: testDataset(t, 4)})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 6, 4), 2, integrate.ToolStreakline),
	}})
	id := r.Rakes[0].ID
	r = frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdRemoveRake, Rake: id},
	}})
	if len(r.Rakes) != 0 || len(r.Geometry) != 0 {
		t.Fatalf("rake survived removal: %d rakes, %d geometry", len(r.Rakes), len(r.Geometry))
	}
	s.mu.Lock()
	_, haveGeo := s.geoCache[id]
	_, haveStreak := s.streaks[id]
	s.mu.Unlock()
	if haveGeo || haveStreak {
		t.Errorf("stale caches after removal: geo=%v streak=%v", haveGeo, haveStreak)
	}
}
