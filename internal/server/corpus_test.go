package server

// The golden corpus: committed wire bytes for 14 canonical sessions, one
// file each under testdata/golden. One table (corpus) writes each
// session's script once, as data, and one driver (replayCorpus) replays
// every entry in every configuration the protocol promises not to show:
// direct, rerun on a fresh server, governed at a budget no frame reaches,
// and behind one and two relay hops — each byte for byte against the
// file — plus the file decoded as each user's workstation decodes it.
//
// Frames are generated under a ManualClock, so ComputeNanos and
// LoadNanos encode as zero and the bytes are reproducible across runs.
// Coordinates are float32 results of the integrators, so the corpus is
// pinned to platforms whose Go compiler does not fuse multiply-adds
// differently (amd64/arm64 agree today). Regenerate with
//
//	go test ./internal/server/ -run Golden -update
//
// (the same flag makes TestPlanVectors rewrite plan_vectors.json's want
// fields).

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden frame corpus and plan_vectors.json's want fields")

// The corpus's tests are named for the rows and the hops they replay, so
// make's -run patterns select them by top-level name: `make tools` the
// Tool rows, `make live` the Live rows, `make relay` every relayed
// replay.
func TestGoldenFrames(t *testing.T)                 { replayCorpus(t, 0, plainData, wire.CodecV1) }
func TestGoldenFramesV2(t *testing.T)               { replayCorpus(t, 0, plainData, wire.CodecV2) }
func TestGoldenToolFrames(t *testing.T)             { replayCorpus(t, 0, toolData, wire.CodecV1) }
func TestGoldenToolFramesV2(t *testing.T)           { replayCorpus(t, 0, toolData, wire.CodecV2) }
func TestGoldenFramesLive(t *testing.T)             { replayCorpus(t, 0, liveData, 0) }
func TestRelayGoldenFrames(t *testing.T)            { replayCorpus(t, 1, plainData, 0) }
func TestRelayChainedGoldenFrames(t *testing.T)     { replayCorpus(t, 2, plainData, 0) }
func TestRelayToolGoldenFrames(t *testing.T)        { replayCorpus(t, 1, toolData, 0) }
func TestRelayToolChainedGoldenFrames(t *testing.T) { replayCorpus(t, 2, toolData, 0) }
func TestRelayLiveGoldenFrames(t *testing.T)        { replayCorpus(t, 1, liveData, 0) }
func TestRelayLiveChainedGoldenFrames(t *testing.T) { replayCorpus(t, 2, liveData, 0) }

// corpusEntry is one corpus file: the dataset its server serves, the
// codec its sessions negotiate, and its exchanges. The script sees the
// grid because the live rakes are laid out in fractions of its bounds.
type corpusEntry struct {
	name   string
	data   corpusData
	codec  uint8
	script func(g *grid.Grid) []exchange
}

// exchange is one scripted frame: which user sends which update. Users
// are numbered 1, 2, … in order of first use.
type exchange struct {
	user int64
	u    wire.ClientUpdate
}

var corpus = []corpusEntry{
	{"steady-streamlines", plainData, wire.CodecV1, steadyScript},
	{"streakline-seek", plainData, wire.CodecV1, streakScript},
	{"multiuser-grab", plainData, wire.CodecV1, grabScript(false)},
	{"v2-steady-delta", plainData, wire.CodecV2, steadyScript},
	{"v2-streak-varint", plainData, wire.CodecV2, streakScript},
	{"v2-grab-keyframe", plainData, wire.CodecV2, grabScript(true)},
	{"iso-steady", toolData, wire.CodecV1, isoScript},
	{"plane-grab", toolData, wire.CodecV1, planeScript},
	{"vortex-cores", toolData, wire.CodecV1, vortexScript},
	{"v2-iso-steady", toolData, wire.CodecV2, isoScript},
	{"v2-plane-grab", toolData, wire.CodecV2, planeScript},
	{"v2-vortex-cores", toolData, wire.CodecV2, vortexScript},
	{"live-steady", liveData, wire.CodecV1, liveSteadyScript},
	{"steer-keyframe", liveData, wire.CodecV2, steerScript},
}

func update(cmds ...wire.Command) wire.ClientUpdate { return wire.ClientUpdate{Commands: cmds} }

// steadyScript builds a two-rake scene, holds still for two frames (the
// whole-frame memo; v2 sends pure references), then moves the hand
// (re-encode, no recompute).
func steadyScript(*grid.Grid) []exchange {
	return []exchange{
		{1, update(
			addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 8, 4), 5, integrate.ToolStreamline),
			addRakeCmd(vmath.V3(2, 9, 3), vmath.V3(2, 13, 3), 4, integrate.ToolStreamline))},
		{user: 1}, {user: 1},
		{1, wire.ClientUpdate{Hand: vmath.V3(3, 2, 1)}},
	}
}

// streakScript puts a smoke source under looping playback — a particle
// history of many short lines, v2's varint-heavy path — then seeks,
// which resets the history, and plays on.
func streakScript(*grid.Grid) []exchange {
	return []exchange{
		{1, update(
			addRakeCmd(vmath.V3(1, 6, 4), vmath.V3(1, 10, 4), 3, integrate.ToolStreakline),
			wire.Command{Kind: wire.CmdSetLoop, Flag: 1},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})},
		{user: 1}, {user: 1},
		{1, update(wire.Command{Kind: wire.CmdSeek, Value: 0.5})},
		{user: 1}, {user: 1},
	}
}

// grabScript has a second user join, grab the first user's rake, drag it
// and release it, frames alternating between the users: the user list
// and the FCFS lock on the wire, and a moved rake's recompute. The v2
// form adds an untouched rake, which stays a reference while the dragged
// one is re-sent inline.
func grabScript(untouched bool) func(*grid.Grid) []exchange {
	add := update(addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 9, 4), 4, integrate.ToolStreamline))
	if untouched {
		add.Commands = append(add.Commands, addRakeCmd(vmath.V3(2, 10, 3), vmath.V3(2, 13, 3), 3, integrate.ToolStreamline))
	}
	return func(*grid.Grid) []exchange {
		return []exchange{
			{1, add},
			{2, wire.ClientUpdate{Hand: vmath.V3(1, 6, 4)}},
			{2, update(wire.Command{Kind: wire.CmdGrab, Rake: 1, Grab: uint8(integrate.GrabCenter)})},
			{user: 1},
			{2, update(wire.Command{Kind: wire.CmdMove, Rake: 1, Pos: vmath.V3(4, 7, 4)})},
			{user: 1},
			{2, update(wire.Command{Kind: wire.CmdRelease, Rake: 1})},
			{user: 1},
		}
	}
}

// isoScript enables the isosurface beside a streamline rake, holds two
// frames (whole-frame and tool memo), re-levels it and disables it.
func isoScript(*grid.Grid) []exchange {
	return []exchange{
		{1, update(
			addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 8, 4), 4, integrate.ToolStreamline),
			wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.8})},
		{user: 1}, {user: 1},
		{1, update(wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.6})},
		{1, update(wire.Command{Kind: wire.CmdIsoSet, Flag: 0, Value: 0.6})},
	}
}

// planeScript: user 1 enables the cutting plane, user 2 grabs it and
// drags it to another axis, user 1's rival move is dropped while the lock
// is held, then user 2 releases and user 1's move lands.
func planeScript(*grid.Grid) []exchange {
	return []exchange{
		{1, update(wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 0, Value: 0.5})},
		{2, update(wire.Command{Kind: wire.CmdPlaneGrab})},
		{2, update(wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 1, Value: 0.25})},
		{1, update(wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 2, Value: 0.75})},
		{2, update(wire.Command{Kind: wire.CmdPlaneRelease})},
		{1, update(wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 2, Value: 0.75})},
	}
}

// vortexScript enables the Q-criterion extractor under looping playback
// (a per-step recompute of one tool version), then toggles it off.
func vortexScript(*grid.Grid) []exchange {
	return []exchange{
		{1, update(
			wire.Command{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.01},
			wire.Command{Kind: wire.CmdSetLoop, Flag: 1},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})},
		{user: 1}, {user: 1},
		{1, update(wire.Command{Kind: wire.CmdVortexToggle, Flag: 0, Value: 0.01})},
	}
}

// liveRakes are the in-situ entries' streamline and streakline rakes.
func liveRakes(g *grid.Grid) []wire.Command {
	return []wire.Command{
		addRakeCmd(boundsAt(g, 0.6, 0.35, 0.5), boundsAt(g, 0.6, 0.55, 0.5), 3, integrate.ToolStreamline),
		addRakeCmd(boundsAt(g, 0.5, 0.45, 0.6), boundsAt(g, 0.5, 0.65, 0.6), 3, integrate.ToolStreakline),
	}
}

// liveSteadyScript plays the live rakes on a loop with steering frozen:
// the producer runs through the whole horizon and back around the
// sealed history window. The solver is part of the byte surface here.
func liveSteadyScript(g *grid.Grid) []exchange {
	return []exchange{
		{1, update(append(liveRakes(g),
			wire.Command{Kind: wire.CmdSetLoop, Flag: 1},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})...)},
		{user: 1}, {user: 1}, {user: 1}, {user: 1}, {user: 1},
	}
}

// steerScript steers mid-run: the change lands between timesteps, every
// step produced afterwards carries the new flow, and v2 keyframes the
// changed geometry.
func steerScript(g *grid.Grid) []exchange {
	return []exchange{
		{1, update(append(liveRakes(g),
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})...)},
		{user: 1}, {user: 1},
		{1, update(wire.Command{Kind: wire.CmdSteerGrab}, wire.Command{Kind: wire.CmdSteer, P0: vmath.V3(2, 300, 0.8)})},
		{user: 1}, {user: 1},
	}
}

// corpusData is the dataset an entry's server serves.
type corpusData uint8

const (
	plainData corpusData = iota // testDataset: a uniform drift
	toolData                    // toolDataset: shear and swirl, so the tools extract something
	liveData                    // the in-situ solver behind a live ring
)

// server builds an origin for data under a ManualClock, governed at
// budget (0: ungoverned) with the governor's rate set to unitNanos.
func (d corpusData) server(t *testing.T, budget time.Duration, unitNanos float64) *Server {
	t.Helper()
	var s *Server
	if d == liveData {
		spec, sopts := liveSpec()
		s, _ = liveServer(t, spec, sopts, spec.NumSteps, Config{Budget: budget})
	} else {
		st := testDataset(t, 4)
		if d == toolData {
			st = toolDataset(t, 4)
		}
		var err error
		if s, err = New(Config{Store: st, Budget: budget, Clock: netsim.NewManualClock()}); err != nil {
			t.Fatal(err)
		}
	}
	s.gov.unitNanos = unitNanos
	return s
}

// replayCorpus replays the entries of data in codec (0: either) at hops
// relay hops. Direct, an entry runs as four subtests against its file:
// direct (which -update writes the file from), rerun, decoded and
// governed; relayed, it is one replay against the file.
func replayCorpus(t *testing.T, hops int, data corpusData, codec uint8) {
	for _, e := range corpus {
		if e.data != data || codec != 0 && e.codec != codec {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			if data == liveData && testing.Short() {
				t.Skip("runs the solver once per replay")
			}
			if hops > 0 {
				compareFrames(t, "relayed", e.replay(t, data.server(t, 0, 0), hops), readGolden(t, e.name))
				return
			}
			s := data.server(t, 0, 0)
			frames := e.replay(t, s, 0)
			if *updateGolden {
				writeGolden(t, e.name, frames)
			}
			golden := readGolden(t, e.name)
			t.Run("direct", func(t *testing.T) { compareFrames(t, "direct", frames, golden) })
			t.Run("rerun", func(t *testing.T) {
				compareFrames(t, "rerun", e.replay(t, data.server(t, 0, 0), 0), golden)
			})
			t.Run("decoded", func(t *testing.T) { e.decode(t, s, golden) })
			// A budget no frame can exceed, with a calibrated rate so the
			// planner prices every frame: shedding must be a strict no-op.
			t.Run("governed", func(t *testing.T) {
				compareFrames(t, "governed", e.replay(t, data.server(t, time.Hour, 100), 0), golden)
			})
		})
	}
}

// replay plays the entry's script against origin through hops relay
// nodes and returns the raw replies in exchange order. A user's
// connection, and its hello2 in a codec-v2 entry, opens at its first
// exchange, so the origin numbers its sessions as the script numbers
// users.
func (e corpusEntry) replay(t *testing.T, origin *Server, hops int) [][]byte {
	t.Helper()
	dial := serveDial(origin.Dlib(), netsim.Link{})
	for range hops {
		_, dial = startRelayNode(t, dial)
	}
	clients := map[int64]*dlib.Client{}
	var frames [][]byte
	var mark roundMark
	for _, ex := range e.script(origin.src.Grid()) {
		c := clients[ex.user]
		if c == nil {
			c = connect(t, dial)
			clients[ex.user] = c
			if e.codec == wire.CodecV2 {
				rep, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2))
				if err != nil {
					t.Fatal(err)
				}
				if codec, _, err := wire.DecodeHelloReply(rep); err != nil || codec != wire.CodecV2 {
					t.Fatalf("hello2: codec %d, %v", codec, err)
				}
			}
		}
		out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(ex.u))
		if err != nil {
			t.Fatal(err)
		}
		checkRound(t, origin, &mark)
		frames = append(frames, bytes.Clone(out))
	}
	return frames
}

// roundMark is what checkRound carries from one step to the next: the
// round then standing and the fresh rounds computed up to it.
type roundMark struct {
	round   uint64
	encoded int64
}

// checkRound holds the origin's round value to its invariants after a
// step: the round list is the geometry, then the tool geometry, each row
// keyed like its source and counting its points, and the round's totals
// are the list's; the tool section is there exactly while a tool is
// active (a disabled tool stays active: its state still ships) and
// mirrors the environment's tools, one geometry per enabled tool; and
// the round moves by one per fresh round, so it never falls and holds
// on a memo-reused one.
func checkRound(t *testing.T, s *Server, prev *roundMark) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.round
	n := len(r.meta.Geometry)
	if len(r.segs) != n+len(r.tools.Geoms) {
		t.Fatalf("round %d: %d round-list rows for %d geometries and %d tool geometries", r.meta.Round, len(r.segs), n, len(r.tools.Geoms))
	}
	var points, toolPoints int64
	for i, sc := range r.segs {
		key, pts := int32(0), 0
		if i < n {
			key, pts = r.meta.Geometry[i].Rake, r.meta.Geometry[i].NumPoints()
			points += sc.points
		} else {
			g := r.tools.Geoms[i-n]
			key, pts = -int32(g.Tool), len(g.Points)
			toolPoints += sc.points
		}
		if sc.key != key || sc.points != int64(pts) {
			t.Fatalf("round %d, row %d: key %d with %d points, its geometry is %d with %d", r.meta.Round, i, sc.key, sc.points, key, pts)
		}
	}
	if r.points != points || r.toolPoints != toolPoints {
		t.Fatalf("round %d: totals %d+%d points, round list sums %d+%d", r.meta.Round, r.points, r.toolPoints, points, toolPoints)
	}
	tools := s.env.Tools()
	if (r.meta.Tools != nil) != tools.Active() {
		t.Fatalf("round %d: tool section %v with tools active %v", r.meta.Round, r.meta.Tools != nil, tools.Active())
	}
	if r.meta.Tools != nil {
		want := wire.ToolsReply{Iso: wireTool(tools[0]), Plane: wireTool(tools[1]), Vortex: wireTool(tools[2])}
		var enabled []uint8
		for i, tl := range tools {
			if tl.Params.Enabled {
				enabled = append(enabled, uint8(i+1))
			}
		}
		got := *r.meta.Tools
		kinds := make([]uint8, len(got.Geoms))
		for i, g := range got.Geoms {
			kinds[i] = g.Tool
		}
		if got.Iso != want.Iso || got.Plane != want.Plane || got.Vortex != want.Vortex || !bytes.Equal(kinds, enabled) {
			t.Fatalf("round %d: tool section %+v %+v %+v with geometry for tools %v; the environment has %+v %+v %+v, tools %v enabled",
				r.meta.Round, got.Iso, got.Plane, got.Vortex, kinds, want.Iso, want.Plane, want.Vortex, enabled)
		}
	}
	fresh := s.stats.FramesEncoded - prev.encoded
	if r.meta.Round != prev.round+uint64(fresh) {
		t.Fatalf("round %d after round %d and %d fresh rounds", r.meta.Round, prev.round, fresh)
	}
	*prev = roundMark{r.meta.Round, s.stats.FramesEncoded}
}

// decode decodes frames as each user's workstation would — codec v2
// through one stateful decoder per user — and requires a tool entry to
// carry tool geometry: the corpus pins real extraction, not empty
// sections.
func (e corpusEntry) decode(t *testing.T, s *Server, frames [][]byte) {
	decs := map[int64]*wire.FrameDecoder{}
	points := 0
	for i, ex := range e.script(s.src.Grid()) {
		decode := wire.DecodeFrameReply
		if e.codec == wire.CodecV2 {
			if decs[ex.user] == nil {
				decs[ex.user] = wire.NewFrameDecoder(s.datasetInfo().Quantizer())
			}
			decode = decs[ex.user].Decode
		}
		r, err := decode(frames[i])
		if err != nil {
			t.Fatalf("frame %d (user %d) does not decode: %v", i, ex.user, err)
		}
		if r.Tools != nil {
			points += r.Tools.TotalPoints()
		}
	}
	if e.data == toolData && points == 0 {
		t.Fatal("no tool geometry decoded across the script")
	}
}

// connect opens a workstation session through dial.
func connect(t *testing.T, dial dlib.DialFunc) *dlib.Client {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := dlib.NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

// goldenPath returns an entry's corpus file.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".bin")
}

// writeGolden writes frames as u32 length-prefixed records.
func writeGolden(t *testing.T, name string, frames [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(f))))
		buf.Write(f)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d frames", goldenPath(name), len(frames))
}

// readGolden splits a corpus file back into frames.
func readGolden(t *testing.T, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var frames [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			t.Fatalf("%s: truncated length prefix", name)
		}
		n := binary.LittleEndian.Uint32(data)
		if data = data[4:]; uint32(len(data)) < n {
			t.Fatalf("%s: truncated frame: want %d bytes, have %d", name, n, len(data))
		}
		frames = append(frames, data[:n])
		data = data[n:]
	}
	return frames
}

// compareFrames asserts byte identity frame by frame, reporting the
// first diverging frame and offset rather than a blob dump.
func compareFrames(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, golden has %d", label, len(got), len(want))
	}
	for i := range want {
		if bytes.Equal(got[i], want[i]) {
			continue
		}
		off := 0
		for off < len(got[i]) && off < len(want[i]) && got[i][off] == want[i][off] {
			off++
		}
		t.Fatalf("%s: frame %d differs at byte %d (lengths %d vs golden %d)",
			label, i, off, len(got[i]), len(want[i]))
	}
}
