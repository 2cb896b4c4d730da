package server

// server.Stats is the only per-round counter set: these tests hold its
// sums, averages and report line, its expvar form, and — on a scripted
// two-codec session — every total against what the clients counted.

import (
	"encoding/json"
	"expvar"
	"strings"
	"testing"
	"time"

	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vmath"
	"repro/internal/wire"
)

func TestZeroStatsAverages(t *testing.T) {
	var zero Stats
	if zero.PerRound(time.Second) != 0 || zero.ReuseRatio() != 0 || !strings.Contains(zero.String(), "frames=0") {
		t.Error("zero Stats divides by zero frames")
	}
	if line := (Stats{Budget: time.Millisecond}).String(); !strings.Contains(line, "shed frames=0 avg=0.0%") {
		t.Errorf("zero governed String() = %q", line)
	}
}

func TestStatsAveragesAndReportLine(t *testing.T) {
	// Two rounds: one recomputed (2 rakes computed, 6 from the memo),
	// one served whole from the frame memo.
	s := Stats{
		Frames: 2, FramesReused: 1, FramesShipped: 3,
		LoadTime: 2 * time.Millisecond, ComputeTime: 6 * time.Millisecond, EncodeTime: time.Millisecond,
		RakesComputed: 2, RakesReused: 6, Points: 200, V1Bytes: 2400, BytesShipped: 3 << 20,
	}
	if s.PerRound(s.LoadTime) != time.Millisecond || s.PerRound(s.ComputeTime) != 3*time.Millisecond {
		t.Errorf("averages: load=%v compute=%v", s.PerRound(s.LoadTime), s.PerRound(s.ComputeTime))
	}
	if got, want := s.ReuseRatio(), 6.0/8.0; got != want {
		t.Errorf("reuse ratio = %v, want %v", got, want)
	}
	line := s.String()
	for _, want := range []string{"frames=2 (reused 1, shipped 3)", "load=1ms compute=3ms encode=500µs", "reused=6 (75%)", "points=200", "v1bytes=2400", "shipped=3.0MB"} {
		if !strings.Contains(line, want) {
			t.Errorf("String() = %q, missing %q", line, want)
		}
	}
	// Each of frames, reuse, shipped bytes and shed is reported once.
	for _, once := range []string{"frames=", "reused=", "shipped=", "shed"} {
		if n := strings.Count(line, once); n > 1 {
			t.Errorf("String() = %q reports %q %d times", line, once, n)
		}
	}
	if strings.Contains(line, "tools") || strings.Contains(line, "budget=") {
		t.Errorf("toolless ungoverned String() = %q carries a tool or governor column", line)
	}

	s.ToolsReused, s.ToolPoints = 1, 40
	if line := s.String(); !strings.Contains(line, "tools computed=0 reused=1 points=40") || strings.Contains(line, "budget=") {
		t.Errorf("String() after a tool ran = %q", line)
	}
	s.Budget, s.PredictedTime, s.FramesShed, s.ShedSum = 5*time.Millisecond, 8*time.Millisecond, 1, 0.5
	if line := s.String(); !strings.Contains(line, "budget=5ms predicted=4ms shed frames=1 avg=25.0%") {
		t.Errorf("governed String() = %q", line)
	}
}

// TestStatsPublishedLive covers the expvar surface vwserver's -debug
// mode relies on: the published var renders the server's live Stats as
// JSON that decodes back to the same Stats.
func TestStatsPublishedLive(t *testing.T) {
	s, err := New(Config{Store: testDataset(t, 2), Budget: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	obs.PublishFunc("server_test.frames", func() any { return s.Stats() })
	v := expvar.Get("server_test.frames")
	if v == nil {
		t.Fatal("PublishFunc did not register the var")
	}
	d := newDirectSession(t, s, 1)
	for i, cmds := range [][]wire.Command{steadyCommands(), nil} {
		d.frame(wire.ClientUpdate{Commands: cmds})
		var got Stats
		if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
			t.Fatalf("published value is not JSON: %v", err)
		}
		if want := s.Stats(); got != want || got.Frames != int64(i+1) || got.Budget != 3*time.Millisecond {
			t.Errorf("after frame %d published %+v, server has %+v", i+1, got, want)
		}
	}
}

// clientBooks is what the workstations of TestStatsMatchClientCounts can
// count from their own calls and replies.
type clientBooks struct {
	consumed               map[int64]bool   // sessions served since the last round started
	lastRound              map[int64]uint64 // session -> last Round it received
	newest                 uint64
	ships, shipBytes       int64
	v2Ships                int64
	fresh, memo            int64 // rounds recomputed / re-served whole
	points                 int64 // rake points of every fresh or memo round
	v1Rounds, v1Bytes      int64 // distinct rounds the v1 session received
	shed                   int64
	shedAtLeast, shedBelow float64
}

// book counts one call. The protocol's rule: a call starts a round when
// it carries commands or its session was already served the standing
// one; otherwise it shares that round. Whether a started round was
// recomputed or served whole from the frame memo is on the wire — the
// Round number moved or it did not.
func (b *clientBooks) book(session int64, v2 bool, u wire.ClientUpdate, raw []byte, r wire.FrameReply) {
	b.ships++
	b.shipBytes += int64(len(raw))
	if v2 {
		b.v2Ships++
	}
	if b.consumed[session] || len(u.Commands) > 0 {
		clear(b.consumed)
		b.points += int64(r.TotalPoints())
		if r.Round == b.newest {
			b.memo++
		} else {
			b.newest = r.Round
			b.fresh++
			if r.Degraded != 0 {
				// degradedByte: 1 + int(frac*254).
				b.shed++
				b.shedAtLeast += float64(r.Degraded-1) / 254
				b.shedBelow += float64(r.Degraded) / 254
			}
		}
	}
	b.consumed[session] = true
	if !v2 && b.lastRound[session] != r.Round {
		b.v1Rounds++
		b.v1Bytes += int64(len(raw))
	}
	b.lastRound[session] = r.Round
}

func TestStatsMatchClientCounts(t *testing.T) {
	const budget = 2 * time.Millisecond
	s, err := New(Config{Store: testDataset(t, 4), Budget: budget, Clock: netsim.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	a, b := newV2Session(t, s, 1), newDirectSession(t, s, 2)
	books := clientBooks{consumed: map[int64]bool{}, lastRound: map[int64]uint64{}}
	askV2 := func(cmds ...wire.Command) wire.FrameReply {
		u := wire.ClientUpdate{Head: vmath.Identity(), Commands: cmds}
		raw := a.rawFrame(u)
		r, err := a.dec.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		books.book(1, true, u, raw, r)
		return r
	}
	askV1 := func() {
		u := wire.ClientUpdate{Head: vmath.Identity()}
		raw := b.rawFrame(u)
		r, err := wire.DecodeFrameReply(raw)
		if err != nil {
			t.Fatal(err)
		}
		books.book(2, false, u, raw, r)
	}

	// Three rakes on a paused scene, uncalibrated governor: full fidelity.
	askV2(
		addRakeCmd(vmath.V3(1, 3, 4), vmath.V3(1, 5, 4), 32, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 6, 4), vmath.V3(1, 8, 4), 32, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 9, 4), vmath.V3(1, 11, 4), 32, integrate.ToolStreamline),
	)
	askV1() // shares the round: first v1 encode
	// One rake moves: one recompute, two dirty-rake memo hits.
	askV2(
		wire.Command{Kind: wire.CmdGrab, Rake: 1, Grab: uint8(integrate.GrabCenter)},
		wire.Command{Kind: wire.CmdMove, Rake: 1, Pos: vmath.V3(1.5, 4, 4)},
	)
	askV1()
	// Idle: three rounds served whole from the frame memo, one of them
	// shared.
	askV2()
	askV2()
	askV1() // shares the second
	askV1()
	wantComputed, wantReused := int64(3+1), int64(2)
	if st := s.Stats(); st.RakesComputed != wantComputed || st.RakesReused != wantReused || st.FramesShed != 0 {
		t.Fatalf("before the overload: %+v", st)
	}
	// Overload: a calibration under which three playing rakes predict
	// ~17 ms against the 2 ms budget, so every round from here sheds.
	s.gov.unitNanos = 100
	if r := askV2(wire.Command{Kind: wire.CmdSetLoop, Flag: 1}, wire.Command{Kind: wire.CmdSetPlaying, Flag: 1}); r.Degraded == 0 {
		t.Fatal("overloaded round not degraded")
	}
	askV1() // shares it
	askV1() // starts the next one
	askV2() // shares that
	wantComputed += 2 * 3

	st := s.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Frames", st.Frames, books.fresh + books.memo},
		{"FramesReused", st.FramesReused, books.memo},
		{"FramesEncoded", st.FramesEncoded, books.fresh},
		{"FramesShipped", st.FramesShipped, books.ships},
		{"BytesShipped", st.BytesShipped, books.shipBytes},
		{"V2Frames", st.V2Frames, books.v2Ships},
		{"V1Encodes", st.V1Encodes, books.v1Rounds},
		{"V1Bytes", st.V1Bytes, books.v1Bytes},
		{"Points", st.Points, books.points},
		{"RakesComputed", st.RakesComputed, wantComputed},
		{"RakesReused", st.RakesReused, wantReused},
		{"FramesShed", st.FramesShed, books.shed},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, clients counted %d", c.name, c.got, c.want)
		}
	}
	if books.memo != 3 || books.shed != 2 || books.v1Rounds != 4 {
		t.Errorf("script drifted: %d memo rounds, %d shed rounds, %d v1 rounds; want 3, 2, 4", books.memo, books.shed, books.v1Rounds)
	}
	if st.ShedSum < books.shedAtLeast || st.ShedSum >= books.shedBelow {
		t.Errorf("ShedSum = %v, degradation bytes on the wire put it in [%v, %v)", st.ShedSum, books.shedAtLeast, books.shedBelow)
	}
	if st.Budget != budget || !strings.Contains(st.String(), "budget=2ms") || !strings.Contains(st.String(), "shed frames=2") {
		t.Errorf("governor column: %q", st.String())
	}
}
