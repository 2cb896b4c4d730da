package server

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// Unit coverage for the shared-tool half of the server: the tool rungs
// of the governor's ladder and the (version, step, stride) geometry
// memo. The wire-visible behavior is pinned by the golden corpus; these
// tests pin the internal contracts the corpus rests on.

// TestPlanWithReserveMonotone: what the tools' planned stride costs
// really comes out of the rakes' allowance — a costlier tool never
// allows more planned rake work — and it is the planned stride, not the
// full one, that is charged: no rake sheds a step while the tool still
// has a coarser stride to fall to.
func TestPlanWithReserveMonotone(t *testing.T) {
	g := calibratedGovernor(time.Millisecond, 50)
	// Floor-stride costs at 50ns/unit: 0, 50us, 200us, 500us, 900us,
	// the whole 1ms budget, and ten times it.
	floors := []int64{0, 1000, 4000, 10000, 18000, 20000, 200000}
	prev := int64(-1)
	for i := len(floors) - 1; i >= 0; i-- {
		rows := append(planRows(4, 1, 64, 200), toolDemand(floors[i]*16, floors[i]*4, floors[i]))
		_, shed := g.plan(rows)
		if tool := rows[4]; shed && floors[i] > 0 && tool.stride != toolStrides[len(toolStrides)-1] {
			t.Fatalf("floor cost %d: a rake shed while the tool still marched at stride %d", floors[i], tool.stride)
		}
		total := plannedUnits(rows)
		if prev >= 0 && total < prev {
			t.Fatalf("tool floor cost %d planned %d rake units, costlier tool (%d) planned %d",
				floors[i], total, floors[i+1], prev)
		}
		prev = total
	}
}

// TestPlanWithReserveExceedingBudgetFloors: when the tools' floor stride
// alone swallows the whole effective budget the rake budget clamps to
// zero, not negative — every rake lands on the floor (one seed,
// minShedSteps) instead of underflowing, and the tool still marches.
func TestPlanWithReserveExceedingBudgetFloors(t *testing.T) {
	g := calibratedGovernor(time.Millisecond, 50)
	hour := int64(time.Hour) / 50
	rows := append(planRows(3, 0, 64, 200), toolDemand(hour*16, hour*4, hour))
	_, shed := g.plan(rows)
	if !shed {
		t.Fatal("a tool beyond the budget did not shed the rakes")
	}
	for i, d := range rows[:3] {
		if d.level.Seeds != 1 || d.level.Steps != minShedSteps {
			t.Fatalf("level %d = %+v, want the floor {1 %d}", i, d.level, minShedSteps)
		}
	}
	if d := rows[3]; d.stride != 4 || d.planned != hour {
		t.Fatalf("tool planned stride %d (%d units), want the floor stride", d.stride, d.planned)
	}
}

// toolPlanServer builds a governed server on the structured dataset
// with all three tools enabled and the snapshot the planner reads
// refreshed, without running a frame.
func toolPlanServer(t *testing.T, budget time.Duration, unitNanos float64) *Server {
	t.Helper()
	s := toolData.server(t, budget, unitNanos)
	for i, p := range [env.NumTools]env.ToolParams{
		{Enabled: true, Value: 0.8}, {Enabled: true, Axis: 2, Value: 0.5}, {Enabled: true, Value: 0.01},
	} {
		if err := s.Env().SetTool(1, env.ToolID(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.toolSnap = s.env.Tools()
	s.mu.Unlock()
	return s
}

// planToolRows runs the plan stage beside one small free rake and
// returns the three tool rows of the ladder.
func planToolRows(s *Server) []demand {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs = append(s.jobs[:0], rakeJob{gc: &rakeGeom{seeds: make([]vmath.Vec3, 4)}})
	s.planJobsLocked()
	return s.rows[:env.NumTools]
}

// TestPlanToolsStrideLadder: through the plan stage, the tools walk
// the {1, 2, 4} ladder — full fidelity when the budget fits everything,
// coarser as it tightens, and the stride-4 floor when nothing fits —
// with every tool on the same stride and charged exactly that stride's
// units. Ungoverned and uncalibrated servers always plan stride 1,
// which is what keeps their frames byte-identical to the ungoverned
// corpus.
func TestPlanToolsStrideLadder(t *testing.T) {
	// Ungoverned and uncalibrated: stride 1, full units.
	for name, s := range map[string]*Server{
		"ungoverned":   toolPlanServer(t, 0, 0),
		"uncalibrated": toolPlanServer(t, time.Millisecond, 0),
		"generous":     toolPlanServer(t, time.Hour, 100),
	} {
		for i, d := range planToolRows(s) {
			if d.stride != 1 || d.planned != d.units || d.units <= 0 {
				t.Fatalf("%s: tool %d stride=%d planned=%d of %d units, want stride 1 at full",
					name, i, d.stride, d.planned, d.units)
			}
		}
	}

	// Inactive tools cost nothing even under a governor.
	for i, d := range planToolRows(toolData.server(t, time.Millisecond, 100)) {
		if d.stride != 1 || d.units != 0 || d.planned != 0 {
			t.Fatalf("inactive tool %d: stride=%d units=%d planned=%d, want 1, 0, 0", i, d.stride, d.units, d.planned)
		}
	}

	// Sweep budgets from generous to hopeless: the stride must be
	// monotone (tighter budget never marches finer) and must reach the
	// stride-4 floor — never zero, never off the ladder — with the
	// charge tracking the chosen stride's cost.
	prevStride := 0
	sawFloor := false
	for _, budget := range []time.Duration{
		time.Hour, 10 * time.Millisecond, time.Millisecond,
		100 * time.Microsecond, time.Microsecond,
	} {
		s := toolPlanServer(t, budget, 100)
		rows := planToolRows(s)
		stride := rows[0].stride
		k := slices.Index(toolStrides[:], stride)
		if k < 0 {
			t.Fatalf("budget %v planned stride %d, off the ladder", budget, stride)
		}
		if stride < prevStride {
			t.Fatalf("budget %v planned stride %d, finer than a looser budget's %d",
				budget, stride, prevStride)
		}
		for i, tool := range s.toolSnap {
			want := toolKinds[i].units(s.src.Grid(), tool.Params, stride)
			if d := rows[i]; d.stride != stride || d.planned != want || d.rungs[k] != want {
				t.Fatalf("budget %v: tool %d stride %d charged %d units, want stride %d at %d",
					budget, i, d.stride, d.planned, stride, want)
			}
		}
		prevStride = stride
		sawFloor = sawFloor || stride == toolStrides[len(toolStrides)-1]
	}
	if !sawFloor {
		t.Fatal("no budget in the sweep reached the stride floor")
	}
}

// TestPlanToolCoarsensBeforeRakeSheds sweeps one frame — a tool beside
// free and held rakes — from ample to starved and checks the ladder's
// class order at every point: while any coarser stride remains the
// rakes stay at full fidelity, and somewhere in the sweep the tool is
// coarsened with every rake still full.
func TestPlanToolCoarsensBeforeRakeSheds(t *testing.T) {
	coarsenedAlone := false
	for b := 40 * time.Millisecond; b > 0; b = b * 9 / 10 {
		rows := append(planRows(4, 1, 64, 200), toolDemand(160000, 40000, 10000))
		_, shed := calibratedGovernor(b, 10).plan(rows)
		tool := rows[4]
		if shed && tool.stride != toolStrides[len(toolStrides)-1] {
			t.Fatalf("budget %v: a rake shed while the tool marched at stride %d", b, tool.stride)
		}
		coarsenedAlone = coarsenedAlone || (!shed && tool.stride > 1)
	}
	if !coarsenedAlone {
		t.Error("no budget coarsened the tool while every rake kept full fidelity")
	}
}

// TestToolMemoStats: the geometry memo is keyed by (tool version,
// step, stride). At a fixed step, re-leveling the isosurface
// recomputes only the isosurface — the untouched vortex tool is a
// memo hit — and the stats ledger counts both sides.
func TestToolMemoStats(t *testing.T) {
	s := toolData.server(t, 0, 0)
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
				s := toolData.server(t, 5*time.Millisecond, 50000)
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
			dec := wire.NewFrameDecoder(quantizerOf(t))
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
