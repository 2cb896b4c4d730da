package server

// Serving-path identity. A round's bytes are produced by whoever needs
// them, when they need them: a pool job writes its source's codec-v2
// segment as it finishes the geometry, and the shared codec-v1 reply is
// encoded the first time a v1 session or a relay asks. None of that may
// show on the wire — every consumer must receive the bytes it would
// have received had everything been encoded inside the round, whatever
// the order the consumers arrive in and however many workers ran the
// pool.

import (
	"bytes"
	"testing"

	"repro/internal/compute"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// busyScene sets up two rakes and all three shared tools and starts
// looping playback, so every following round has rakes and tools dirty
// together.
func busyScene() []wire.Command {
	return []wire.Command{
		addRakeCmd(vmath.V3(2, 3, 3), vmath.V3(2, 12, 3), 12, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(3, 3, 4), vmath.V3(3, 12, 4), 12, integrate.ToolParticlePath),
		{Kind: wire.CmdIsoGrab},
		{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.9},
		{Kind: wire.CmdPlaneGrab},
		{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 2, Value: 0.5},
		{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.002},
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}
}

func servingServer(t *testing.T, workers int) *Server {
	t.Helper()
	s, err := New(Config{Store: toolDataset(t, 4), Clock: netsim.NewManualClock(), Engine: compute.Parallel{NumWorkers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// relayFull sends one relay frame exchange for the session and returns
// the reply bytes, which must be a Full.
func relayFull(t *testing.T, d *directSession, wantSegs bool) []byte {
	t.Helper()
	req := wire.AppendRelayFrameRequest(nil, wire.RelayFrameRequest{
		WantSegs: wantSegs,
		Update:   wire.EncodeClientUpdate(wire.ClientUpdate{Head: vmath.Identity()}),
	})
	out, err := d.s.handleFrameRelay(d.ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeRelayFrameReply(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full || len(rep.Frame) == 0 {
		t.Fatalf("relay reply is not a full round: %+v", rep)
	}
	return bytes.Clone(out)
}

// TestV1ReplyOnDemandMatchesEncodeInRound drives one script through two
// servers. On the reference server the v1 workstation is the first to
// ask for every round, so its reply is encoded straight after the
// recompute, as an encode inside the round would be. On the other the
// v2 session always asks first — computing the round and consuming it —
// and the v1 workstation and a relay only ask afterwards, alternating
// which of them triggers the deferred encode: once per fresh round, and
// then on a paused scene for a round the v2 session has already had
// re-served from the frame memo. Every consumer's bytes must match the
// reference's.
func TestV1ReplyOnDemandMatchesEncodeInRound(t *testing.T) {
	idle := wire.ClientUpdate{Head: vmath.Identity()}
	type streams struct{ v1, v2, relay [][]byte }
	run := func(v2First bool) streams {
		s := servingServer(t, 2)
		a := newV2Session(t, s, 1)
		b := newDirectSession(t, s, 2)
		r := newDirectSession(t, s, 3)
		var out streams
		askV2 := func(u wire.ClientUpdate) { out.v2 = append(out.v2, a.rawFrame(u)) }
		askV1 := func() { out.v1 = append(out.v1, b.rawFrame(idle)) }
		askRelay := func(tick int) { out.relay = append(out.relay, relayFull(t, r, tick%2 == 1)) }

		// The scene goes up the same way on both servers.
		askV2(wire.ClientUpdate{Head: vmath.Identity(), Commands: busyScene()})
		askV1()
		askRelay(0)
		// Fresh rounds: playback dirties every rake and tool each tick.
		for tick := 1; tick <= 5; tick++ {
			switch {
			case !v2First:
				askV1()
				askRelay(tick)
				askV2(idle)
			case tick%2 == 0:
				askV2(idle)
				askV1()
				askRelay(tick)
			default:
				askV2(idle)
				askRelay(tick)
				askV1()
			}
		}
		// A re-served round: pausing computes one last fresh round, which
		// only the v2 session consumes before asking again — the frame
		// memo re-serves it — and only then do the others ask. On the
		// reference they have asked in between (unrecorded), so there the
		// reply was encoded while the round was fresh.
		askV2(wire.ClientUpdate{Head: vmath.Identity(), Commands: []wire.Command{{Kind: wire.CmdSetPlaying}}})
		if !v2First {
			b.rawFrame(idle)
			relayFull(t, r, false)
		}
		reused := s.Stats().FramesReused
		askV2(idle)
		if got := s.Stats().FramesReused; got != reused+1 {
			t.Fatalf("the v2 session's second ask re-served %d rounds, want 1", got-reused)
		}
		askRelay(1)
		askV1()
		if st := s.Stats(); st.V1Encodes > st.FramesEncoded {
			t.Fatalf("%d v1 encodes for %d rounds", st.V1Encodes, st.FramesEncoded)
		}
		return out
	}
	want, got := run(false), run(true)
	for name, pair := range map[string][2][][]byte{
		"v1":    {want.v1, got.v1},
		"v2":    {want.v2, got.v2},
		"relay": {want.relay, got.relay},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d replies on the reference, %d when v2 asks first", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if !bytes.Equal(pair[0][i], pair[1][i]) {
				t.Errorf("%s reply %d differs when the v2 session consumes the round first (%d vs %d bytes)",
					name, i, len(pair[0][i]), len(pair[1][i]))
			}
		}
	}
	// The rounds really carried both kinds of geometry.
	last, err := wire.DecodeFrameReply(got.v1[len(got.v1)-1])
	if err != nil {
		t.Fatal(err)
	}
	if last.TotalPoints() == 0 || last.Tools == nil || last.Tools.TotalPoints() == 0 {
		t.Fatalf("script produced no geometry to compare: %d rake points, tools %v", last.TotalPoints(), last.Tools)
	}
}

// TestV2JoinerGetsTheInJobSegments: a v2 session that joins a memoized
// scene is served the segments the pool jobs wrote, not re-encoded ones,
// and they are byte-equal to a fresh encode of the standing geometry.
// The same joiner on a server whose round was computed before any v2
// consumer existed — so nothing was written in-job and every segment is
// encoded on this first request — receives the same frame.
func TestV2JoinerGetsTheInJobSegments(t *testing.T) {
	scene := wire.ClientUpdate{Head: vmath.Identity(), Commands: append(busyScene(), wire.Command{Kind: wire.CmdSetPlaying})}
	join := func(v2FromStart bool) (joiner []byte, s *Server) {
		s = servingServer(t, 2)
		if v2FromStart {
			newV2Session(t, s, 1).rawFrame(scene)
		} else {
			newDirectSession(t, s, 1).rawFrame(scene)
		}
		before := s.Stats().SegmentsEncoded
		joiner = newV2Session(t, s, 2).rawFrame(wire.ClientUpdate{Head: vmath.Identity()})
		encodedOnJoin := s.Stats().SegmentsEncoded - before
		sources := int64(len(s.round.segs))
		if sources != 5 {
			t.Fatalf("round list holds %d sources, want 2 rakes + 3 tools", sources)
		}
		if v2FromStart && (before != sources || encodedOnJoin != 0) {
			t.Errorf("v2 from the start: %d segments written in-job, %d on join; want %d and 0", before, encodedOnJoin, sources)
		}
		if !v2FromStart && (before != 0 || encodedOnJoin != sources) {
			t.Errorf("v1 until the join: %d segments before it, %d on join; want 0 and %d", before, encodedOnJoin, sources)
		}
		return joiner, s
	}
	inJob, s := join(true)
	lazy, _ := join(false)
	if !bytes.Equal(inJob, lazy) {
		t.Errorf("joiner's keyframe differs: %d bytes off in-job segments, %d off first-request ones", len(inJob), len(lazy))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sc := range s.round.segs {
		var fresh []byte
		if n := len(s.round.meta.Geometry); i < n {
			fresh = wire.AppendGeomV2(nil, s.round.meta.Geometry[i], s.quant)
		} else {
			fresh = wire.AppendToolGeomV2(nil, s.round.tools.Geoms[i-n], s.quant)
		}
		if sc.segSeq != sc.seq || sc.sealed {
			t.Errorf("source %d: segment for seq %d (sealed %v), geometry at seq %d", sc.key, sc.segSeq, sc.sealed, sc.seq)
		}
		if !bytes.Equal(sc.seg, fresh) {
			t.Errorf("source %d: in-job segment differs from a fresh encode (%d vs %d bytes)", sc.key, len(sc.seg), len(fresh))
		}
		if len(fresh) < 8 {
			t.Errorf("source %d: segment is only %d bytes; the scene is empty", sc.key, len(fresh))
		}
	}
}

// TestOnlyConsumedEncodingsArePaidFor: a server that never met a codec-v2
// session or a relay directory request never encodes a segment, and one
// that never met a v1 consumer never encodes the shared v1 reply —
// while FramesEncoded keeps counting one per recomputed round on both.
func TestOnlyConsumedEncodingsArePaidFor(t *testing.T) {
	scene := wire.ClientUpdate{Head: vmath.Identity(), Commands: busyScene()}
	idle := wire.ClientUpdate{Head: vmath.Identity()}
	const rounds = 4

	s := servingServer(t, 2)
	v1 := newDirectSession(t, s, 1)
	v1.rawFrame(scene)
	for i := 1; i < rounds; i++ {
		v1.rawFrame(idle)
	}
	st := s.Stats()
	if st.SegmentsEncoded != 0 {
		t.Errorf("v1-only server encoded %d segments", st.SegmentsEncoded)
	}
	if st.FramesEncoded != rounds || st.V1Encodes != rounds {
		t.Errorf("v1-only server: %d rounds, %d v1 encodes, want %d each", st.FramesEncoded, st.V1Encodes, rounds)
	}

	s = servingServer(t, 2)
	v2 := newV2Session(t, s, 1)
	v2.rawFrame(scene)
	for i := 1; i < rounds; i++ {
		v2.rawFrame(idle)
	}
	st = s.Stats()
	if st.V1Encodes != 0 || st.EncodeTime != 0 {
		t.Errorf("v2-only server encoded the v1 reply %d times (%v)", st.V1Encodes, st.EncodeTime)
	}
	if want := st.RakesComputed + st.ToolsComputed; st.FramesEncoded != rounds || st.SegmentsEncoded != want {
		t.Errorf("v2-only server: %d rounds, %d segments; want %d rounds and one segment per recompute (%d)",
			st.FramesEncoded, st.SegmentsEncoded, rounds, want)
	}
}

// TestFramesIndependentOfPoolWidth feeds one script — rakes and tools
// dirty in the same round, a relevel on a standing timestep, a tool-only
// round — to servers whose pools run one, two and five workers. Which
// worker runs which unit is up to the scheduler; the bytes every v1 and
// v2 consumer receives are not.
func TestFramesIndependentOfPoolWidth(t *testing.T) {
	idle := wire.ClientUpdate{Head: vmath.Identity()}
	script := []wire.ClientUpdate{
		{Head: vmath.Identity(), Commands: busyScene()},
		idle, idle, idle,
		{Head: vmath.Identity(), Commands: []wire.Command{{Kind: wire.CmdIsoSet, Flag: 1, Value: 1.1}}},
		{Head: vmath.Identity(), Commands: []wire.Command{{Kind: wire.CmdSetPlaying}}},
		{Head: vmath.Identity(), Commands: []wire.Command{{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.004}}},
		{Head: vmath.Identity(), Commands: []wire.Command{{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 0, Value: 0.25}}},
		idle,
	}
	run := func(workers int) (v1, v2 [][]byte) {
		s := servingServer(t, workers)
		a := newV2Session(t, s, 1)
		b := newDirectSession(t, s, 2)
		for _, u := range script {
			v2 = append(v2, a.rawFrame(u))
			v1 = append(v1, b.rawFrame(idle))
		}
		if st := s.Stats(); st.ToolsComputed < 8 || st.RakesComputed < 8 {
			t.Fatalf("script recomputed %d tools and %d rakes; too few to exercise the pool", st.ToolsComputed, st.RakesComputed)
		}
		return v1, v2
	}
	want1, want2 := run(1)
	for _, workers := range []int{2, 5} {
		got1, got2 := run(workers)
		for i := range script {
			if !bytes.Equal(got1[i], want1[i]) {
				t.Errorf("%d workers: v1 frame %d differs from the one-worker server's", workers, i)
			}
			if !bytes.Equal(got2[i], want2[i]) {
				t.Errorf("%d workers: v2 frame %d differs from the one-worker server's", workers, i)
			}
		}
	}
}
