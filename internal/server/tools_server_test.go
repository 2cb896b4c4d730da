package server

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// Unit coverage for the shared-tool planning half of the server: the
// governor's reserve-aware planner, the tool stride ladder, and the
// (version, step, stride) geometry memo. The wire-visible behavior is
// pinned by the golden corpus; these tests pin the internal contracts
// the corpus rests on.

// TestPlanWithReserveMonotone: a larger reserve never allows more
// planned work — the tools' slice of the budget really comes out of
// the rakes' allowance.
func TestPlanWithReserveMonotone(t *testing.T) {
	g := calibratedGovernor(time.Millisecond, 50)
	reqs := planReqs(4, 1, 64, 200)
	reserves := []time.Duration{
		0, 50 * time.Microsecond, 200 * time.Microsecond,
		500 * time.Microsecond, 900 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, // >= the whole budget
	}
	prev := int64(-1)
	for i := len(reserves) - 1; i >= 0; i-- {
		lvls := make([]shedLevel, len(reqs))
		g.plan(reqs, lvls, reserves[i])
		total := plannedUnits(lvls)
		if prev >= 0 && total < prev {
			t.Fatalf("reserve %v planned %d units, larger reserve %v planned %d",
				reserves[i], total, reserves[i+1], prev)
		}
		prev = total
	}
}

// TestPlanWithReserveExceedingBudgetFloors: when the reserve swallows
// the whole effective budget the rake budget clamps to zero, not
// negative — every rake lands on the floor (one seed, minShedSteps)
// instead of underflowing.
func TestPlanWithReserveExceedingBudgetFloors(t *testing.T) {
	g := calibratedGovernor(time.Millisecond, 50)
	reqs := planReqs(3, 0, 64, 200)
	lvls := make([]shedLevel, len(reqs))
	_, shed := g.plan(reqs, lvls, time.Hour)
	if !shed {
		t.Fatal("reserve beyond the budget did not shed")
	}
	for i, l := range lvls {
		if l.Seeds != 1 || l.Steps != minShedSteps {
			t.Fatalf("level %d = %+v, want the floor {1 %d}", i, l, minShedSteps)
		}
	}
}

// toolPlanServer builds a governed server on the structured dataset
// with all three tools enabled and the snapshot the planner reads
// refreshed, without running a frame.
func toolPlanServer(t *testing.T, budget time.Duration, unitNanos float64) *Server {
	t.Helper()
	s := goldenToolServer(t, budget, unitNanos)
	if err := s.Env().SetIso(1, env.IsoParams{Enabled: true, Level: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := s.Env().SetPlane(1, env.PlaneParams{Enabled: true, Axis: 2, Frac: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Env().SetVortex(1, env.VortexParams{Enabled: true, Threshold: 0.01}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.toolSnap = s.env.Tools()
	s.mu.Unlock()
	return s
}

// TestPlanToolsStrideLadder: the tool planner walks the {1, 2, 4}
// ladder — full fidelity when the budget fits everything, coarser as
// it tightens, and the stride-4 floor (with a nonzero reserve) when
// nothing fits. Ungoverned and uncalibrated servers always plan
// stride 1 with no reserve, which is what keeps their frames
// byte-identical to the ungoverned corpus.
func TestPlanToolsStrideLadder(t *testing.T) {
	const rakeUnits = 1000

	// Ungoverned and uncalibrated: stride 1, nothing reserved.
	for name, s := range map[string]*Server{
		"ungoverned":   toolPlanServer(t, 0, 0),
		"uncalibrated": toolPlanServer(t, time.Millisecond, 0),
	} {
		s.mu.Lock()
		stride, reserve := s.planToolsLocked(s.st.Grid(), rakeUnits)
		s.mu.Unlock()
		if stride != 1 || reserve != 0 {
			t.Fatalf("%s: stride=%d reserve=%v, want 1, 0", name, stride, reserve)
		}
	}

	// Inactive tools cost nothing even under a governor.
	idle := goldenToolServer(t, time.Millisecond, 100)
	idle.mu.Lock()
	stride, reserve := idle.planToolsLocked(idle.st.Grid(), rakeUnits)
	idle.mu.Unlock()
	if stride != 1 || reserve != 0 {
		t.Fatalf("inactive tools: stride=%d reserve=%v, want 1, 0", stride, reserve)
	}

	// Generous budget: full fidelity, and the reserve is exactly the
	// priced cost of the stride-1 march.
	rich := toolPlanServer(t, time.Hour, 100)
	rich.mu.Lock()
	stride, reserve = rich.planToolsLocked(rich.st.Grid(), rakeUnits)
	wantReserve := rich.gov.predict(rich.toolUnitsAtLocked(rich.st.Grid(), 1))
	rich.mu.Unlock()
	if stride != 1 {
		t.Fatalf("generous budget coarsened to stride %d", stride)
	}
	if reserve != wantReserve || reserve <= 0 {
		t.Fatalf("reserve = %v, want %v", reserve, wantReserve)
	}

	// Sweep budgets from generous to hopeless: the stride must be
	// monotone (tighter budget never marches finer) and must reach the
	// stride-4 floor — never zero, never off the ladder — with the
	// reserve tracking the chosen stride's cost.
	prevStride := 0
	sawFloor := false
	for _, budget := range []time.Duration{
		time.Hour, 10 * time.Millisecond, time.Millisecond,
		100 * time.Microsecond, time.Microsecond,
	} {
		s := toolPlanServer(t, budget, 100)
		s.mu.Lock()
		stride, reserve := s.planToolsLocked(s.st.Grid(), rakeUnits)
		wantReserve := s.gov.predict(s.toolUnitsAtLocked(s.st.Grid(), stride))
		s.mu.Unlock()
		ok := false
		for _, cand := range toolStrides {
			ok = ok || stride == cand
		}
		if !ok {
			t.Fatalf("budget %v planned stride %d, off the ladder", budget, stride)
		}
		if stride < prevStride {
			t.Fatalf("budget %v planned stride %d, finer than a looser budget's %d",
				budget, stride, prevStride)
		}
		if reserve != wantReserve {
			t.Fatalf("budget %v: reserve %v does not price stride %d (%v)",
				budget, reserve, stride, wantReserve)
		}
		prevStride = stride
		sawFloor = sawFloor || stride == toolStrides[len(toolStrides)-1]
	}
	if !sawFloor {
		t.Fatal("no budget in the sweep reached the stride floor")
	}
}

// TestToolMemoStats: the geometry memo is keyed by (tool version,
// step, stride). At a fixed step, re-leveling the isosurface
// recomputes only the isosurface — the untouched vortex tool is a
// memo hit — and the stats ledger counts both sides.
func TestToolMemoStats(t *testing.T) {
	s := goldenToolServer(t, 0, 0)
	d := newDirectSession(t, s, 1)

	d.rawFrame(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.8},
		{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.01},
	}})
	st := s.Stats()
	if st.ToolsComputed != 2 || st.ToolsReused != 0 {
		t.Fatalf("first frame: computed=%d reused=%d, want 2, 0", st.ToolsComputed, st.ToolsReused)
	}
	if st.ToolPoints <= 0 {
		t.Fatal("structured dataset extracted no tool geometry")
	}

	// Re-level the iso at the same step: one recompute, one memo hit.
	d.rawFrame(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.6},
	}})
	st = s.Stats()
	if st.ToolsComputed != 3 || st.ToolsReused != 1 {
		t.Fatalf("after re-level: computed=%d reused=%d, want 3, 1", st.ToolsComputed, st.ToolsReused)
	}

	// Stepping playback invalidates every tool memo at once: both
	// tools recompute, nothing is reused.
	d.rawFrame(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSeek, Value: 2},
	}})
	st = s.Stats()
	if st.ToolsComputed != 5 || st.ToolsReused != 1 {
		t.Fatalf("after step change: computed=%d reused=%d, want 5, 1", st.ToolsComputed, st.ToolsReused)
	}
}

// toolShedScript enables all three tools beside two held rakes and
// plays the clip, so a tight budget must degrade rounds while the
// tool section stays populated.
func toolShedScript() []wire.ClientUpdate {
	script := []wire.ClientUpdate{{Head: vmath.Identity(), Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 3, 4), vmath.V3(1, 5, 4), 32, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 6, 4), vmath.V3(1, 8, 4), 32, integrate.ToolStreamline),
		{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.8},
		{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 1, Value: 0.5},
		{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.01},
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}}}
	for i := 0; i < 6; i++ {
		script = append(script, wire.ClientUpdate{Head: vmath.Identity()})
	}
	return script
}

// TestToolFramesDeterministicUnderShed: two identical servers under a
// degrading governor produce byte-identical frames with all three
// tools enabled, in both codecs. This is the cross-server contract
// relay fan-out depends on; the script must actually degrade at least
// one round or the property goes untested.
func TestToolFramesDeterministicUnderShed(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			run := func() [][]byte {
				// Price integration expensively so the governor sheds;
				// the ManualClock freezes the EWMA for the whole run.
				s := goldenToolServer(t, 5*time.Millisecond, 50000)
				var frames [][]byte
				if v2 {
					d := newV2Session(t, s, 1)
					for _, u := range toolShedScript() {
						frames = append(frames, d.rawFrame(u))
					}
				} else {
					d := newDirectSession(t, s, 1)
					for _, u := range toolShedScript() {
						frames = append(frames, d.rawFrame(u))
					}
				}
				return frames
			}
			a, b := run(), run()
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("round %d: %s bytes diverge across identical servers (%d vs %d bytes)",
						i, name, len(a[i]), len(b[i]))
				}
			}
			// The script must have produced at least one degraded round
			// and shipped tool geometry in at least one frame.
			degraded, toolPoints := false, false
			dec := wire.NewFrameDecoder(toolQuantizerOf(t))
			for _, raw := range a {
				var r wire.FrameReply
				var err error
				if v2 {
					r, err = dec.Decode(raw)
				} else {
					r, err = wire.DecodeFrameReply(raw)
				}
				if err != nil {
					t.Fatal(err)
				}
				degraded = degraded || r.Degraded > 0
				toolPoints = toolPoints || (r.Tools != nil && r.Tools.TotalPoints() > 0)
			}
			if !degraded {
				t.Fatal("script produced no degraded rounds; determinism-under-shed untested")
			}
			if !toolPoints {
				t.Fatal("no frame carried tool geometry; the shed path never marched a tool")
			}
		})
	}
}
