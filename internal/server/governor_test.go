package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// calibratedGovernor returns a governor with a hand-set ns/unit rate,
// so plan behavior is a pure function of the inputs (no wall clock).
func calibratedGovernor(budget time.Duration, unitNanos float64) *governor {
	g := newGovernor(budget, 4)
	g.unitNanos = unitNanos
	return g
}

// planReqs builds n streamline requests of the given shape; the first
// nHeld are marked held.
func planReqs(n, nHeld, seeds, steps int) []shedRequest {
	reqs := make([]shedRequest, n)
	for i := range reqs {
		reqs[i] = shedRequest{
			Units: int64(seeds) * int64(steps) * 9, // RK2 units/point
			Seeds: seeds,
			Steps: steps,
			Held:  i < nHeld,
		}
	}
	return reqs
}

// plannedUnits sums seeds x steps over the planned levels.
func plannedUnits(lvls []shedLevel) int64 {
	var u int64
	for _, l := range lvls {
		u += int64(l.Seeds) * int64(l.Steps)
	}
	return u
}

func TestPlanUncalibratedOrDisabledNeverSheds(t *testing.T) {
	reqs := planReqs(4, 0, 64, 200)
	for name, g := range map[string]*governor{
		"disabled":     calibratedGovernor(0, 100),
		"uncalibrated": newGovernor(time.Millisecond, 4),
	} {
		lvls := make([]shedLevel, len(reqs))
		_, shed := g.plan(reqs, lvls, 0)
		if shed {
			t.Errorf("%s governor shed", name)
		}
		for i, l := range lvls {
			if l.Seeds != reqs[i].Seeds || l.Steps != reqs[i].Steps {
				t.Errorf("%s governor clamped req %d to %+v", name, i, l)
			}
		}
	}
}

func TestPlanUnderBudgetIsFullFidelity(t *testing.T) {
	// 4 rakes x 64 seeds x 200 steps x 9 units at 1ns/unit = ~0.46ms
	// predicted; a 100ms budget must pass everything through.
	g := calibratedGovernor(100*time.Millisecond, 1)
	reqs := planReqs(4, 2, 64, 200)
	lvls := make([]shedLevel, len(reqs))
	predicted, shed := g.plan(reqs, lvls, 0)
	if shed {
		t.Error("under-budget plan shed")
	}
	if predicted <= 0 {
		t.Errorf("predicted = %v, want > 0", predicted)
	}
	for i, l := range lvls {
		if l.Seeds != 64 || l.Steps != 200 {
			t.Errorf("level %d = %+v, want full", i, l)
		}
	}
}

// TestPlanMonotoneInBudget is the core shedding property: over a
// budget x rake-count table, a tighter budget never yields more
// planned work, per rake or in total.
func TestPlanMonotoneInBudget(t *testing.T) {
	budgets := []time.Duration{
		10 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond,
	}
	for _, nRakes := range []int{1, 2, 4, 8, 16} {
		for _, nHeld := range []int{0, 1, nRakes / 2} {
			t.Run(fmt.Sprintf("rakes=%d held=%d", nRakes, nHeld), func(t *testing.T) {
				reqs := planReqs(nRakes, nHeld, 64, 200)
				var prevTotal int64 = -1
				prev := make([]shedLevel, nRakes)
				for bi, b := range budgets {
					g := calibratedGovernor(b, 50)
					lvls := make([]shedLevel, nRakes)
					g.plan(reqs, lvls, 0)
					total := plannedUnits(lvls)
					if total < prevTotal {
						t.Errorf("budget %v planned %d units, tighter budget %v planned %d",
							b, total, budgets[bi-1], prevTotal)
					}
					for i := range lvls {
						if bi > 0 && int64(lvls[i].Seeds)*int64(lvls[i].Steps) <
							int64(prev[i].Seeds)*int64(prev[i].Steps) {
							t.Errorf("budget %v rake %d = %+v, below tighter budget's %+v",
								b, i, lvls[i], prev[i])
						}
					}
					prevTotal = total
					copy(prev, lvls)
				}
			})
		}
	}
}

// TestPlanNeverStarves pins the floors: even a hopeless budget leaves
// every rake at least one seed and the step floor.
func TestPlanNeverStarves(t *testing.T) {
	for _, steps := range []int{200, 8, 5} {
		g := calibratedGovernor(1, 1000) // 1ns budget, expensive units
		reqs := planReqs(16, 3, 64, steps)
		lvls := make([]shedLevel, len(reqs))
		_, shed := g.plan(reqs, lvls, 0)
		if !shed {
			t.Fatalf("steps=%d: hopeless budget did not shed", steps)
		}
		wantSteps := minShedSteps
		if steps < wantSteps {
			wantSteps = steps
		}
		for i, l := range lvls {
			if l.Seeds < 1 {
				t.Errorf("steps=%d rake %d starved to %d seeds", steps, i, l.Seeds)
			}
			if l.Steps < wantSteps {
				t.Errorf("steps=%d rake %d below step floor: %d", steps, i, l.Steps)
			}
		}
	}
}

// TestPlanDeterministic: identical inputs, identical plan — across
// repeated calls and across separately constructed governors.
func TestPlanDeterministic(t *testing.T) {
	reqs := planReqs(8, 2, 48, 150)
	a := make([]shedLevel, len(reqs))
	b := make([]shedLevel, len(reqs))
	g1 := calibratedGovernor(500*time.Microsecond, 37.5)
	g2 := calibratedGovernor(500*time.Microsecond, 37.5)
	p1, s1 := g1.plan(reqs, a, 0)
	p2, s2 := g2.plan(reqs, b, 0)
	if p1 != p2 || s1 != s2 {
		t.Fatalf("plan outcomes differ: (%v,%v) vs (%v,%v)", p1, s1, p2, s2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("level %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPlanHeldRakesDegradeLast pins the FCFS priority: if any held
// rake lost fidelity, every free rake must already be at its floor.
func TestPlanHeldRakesDegradeLast(t *testing.T) {
	reqs := planReqs(6, 2, 64, 200)
	floor := shedOne(64, 200, 0)
	full := shedLevel{Seeds: 64, Steps: 200}
	// Sweep budgets from hopeless to roomy and check the invariant at
	// every point. (Full cost here is ~6.9ms at 10ns/unit; the held
	// class alone is ~2.3ms, so the sweep crosses every regime.)
	for b := time.Duration(1); b < 20*time.Millisecond; b *= 3 {
		g := calibratedGovernor(b, 10)
		lvls := make([]shedLevel, len(reqs))
		g.plan(reqs, lvls, 0)
		heldShed := false
		for i, r := range reqs {
			if r.Held && lvls[i] != full {
				heldShed = true
			}
		}
		if heldShed {
			for i, r := range reqs {
				if !r.Held && lvls[i] != floor {
					t.Errorf("budget %v: held rake shed while free rake %d sits at %+v (floor %+v)",
						b, i, lvls[i], floor)
				}
			}
		}
	}
	// And a mid-range budget exists where free rakes shed but held
	// rakes keep full fidelity.
	seen := false
	for b := time.Duration(1); b < 20*time.Millisecond; b *= 2 {
		g := calibratedGovernor(b, 10)
		lvls := make([]shedLevel, len(reqs))
		_, shed := g.plan(reqs, lvls, 0)
		heldFull := lvls[0] == full && lvls[1] == full
		freeShed := false
		for i := 2; i < len(lvls); i++ {
			if lvls[i] != full {
				freeShed = true
			}
		}
		if shed && heldFull && freeShed {
			seen = true
		}
	}
	if !seen {
		t.Error("no budget point shed free rakes while holding held rakes at full fidelity")
	}
}

// TestPlanFixedNeverClamped pins the streakline contract: stateful
// requests are priced but never shed, at any budget.
func TestPlanFixedNeverClamped(t *testing.T) {
	g := calibratedGovernor(1, 1000)
	reqs := planReqs(3, 0, 64, 200)
	reqs[1].Fixed = true
	lvls := make([]shedLevel, len(reqs))
	g.plan(reqs, lvls, 0)
	if lvls[1].Seeds != 64 || lvls[1].Steps != 200 {
		t.Errorf("fixed request clamped to %+v", lvls[1])
	}
}

func TestDegradedByte(t *testing.T) {
	cases := []struct {
		actual, full int64
		want         uint8
		name         string
	}{
		{100, 100, 0, "full fidelity"},
		{0, 0, 0, "empty frame"},
		{120, 100, 0, "over-delivery clamps to 0"},
		{99, 100, 3, "tiny shed is visible"},
		{0, 100, 255, "everything shed"},
		{50, 100, 128, "half shed"},
	}
	for _, c := range cases {
		if got := degradedByte(c.actual, c.full); got != c.want {
			t.Errorf("%s: degradedByte(%d,%d) = %d, want %d",
				c.name, c.actual, c.full, got, c.want)
		}
	}
	// Monotone: less actual work never yields a smaller byte.
	var prev uint8
	for a := int64(100); a >= 0; a-- {
		got := degradedByte(a, 100)
		if got < prev {
			t.Fatalf("degradedByte(%d,100)=%d < degradedByte(%d,100)=%d", a, got, a+1, prev)
		}
		prev = got
	}
}

// directSession wraps the no-transport handleFrame pattern: call the
// handler with a fixed session ctx and settle the reply hook.
type directSession struct {
	t   *testing.T
	s   *Server
	ctx *dlib.Ctx
}

func newDirectSession(t *testing.T, s *Server, id int64) *directSession {
	return &directSession{t: t, s: s, ctx: &dlib.Ctx{Session: &dlib.Session{ID: id}}}
}

func (d *directSession) frame(u wire.ClientUpdate) wire.FrameReply {
	d.t.Helper()
	out, err := d.s.handleFrame(d.ctx, wire.EncodeClientUpdate(u))
	d.ctx.FinishReply()
	if err != nil {
		d.t.Fatal(err)
	}
	r, err := wire.DecodeFrameReply(out)
	if err != nil {
		d.t.Fatal(err)
	}
	return r
}

func (d *directSession) rawFrame(u wire.ClientUpdate) []byte {
	d.t.Helper()
	out, err := d.s.handleFrame(d.ctx, wire.EncodeClientUpdate(u))
	d.ctx.FinishReply()
	if err != nil {
		d.t.Fatal(err)
	}
	return bytes.Clone(out)
}

// govScenario builds a playing 4-rake scene on a ManualClock server
// and hand-calibrates the governor (the ManualClock freezes the EWMA,
// so the injected rate is the rate for the whole run).
func govScenario(t *testing.T, budget time.Duration, unitNanos float64) (*Server, *directSession) {
	t.Helper()
	s, err := New(Config{
		Store:  testDataset(t, 4),
		Budget: budget,
		Clock:  netsim.NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.gov.unitNanos = unitNanos
	d := newDirectSession(t, s, 1)
	d.frame(wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 3, 4), vmath.V3(1, 5, 4), 32, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 6, 4), vmath.V3(1, 8, 4), 32, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 9, 4), vmath.V3(1, 11, 4), 32, integrate.ToolStreamline),
		addRakeCmd(vmath.V3(1, 12, 4), vmath.V3(1, 14, 4), 32, integrate.ToolStreamline),
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}})
	return s, d
}

// TestGovernorShedsUnderOverloadAndRecovers drives the whole loop:
// playback keeps every rake dirty, an expensive calibration overloads
// the budget, frames go out degraded with fewer points — then playback
// stops, the governor admits upgrades, and the scene recovers to full
// fidelity, byte-for-byte equal to an ungoverned server's steady frame.
func TestGovernorShedsUnderOverloadAndRecovers(t *testing.T) {
	// Ungoverned reference for the full-fidelity point count.
	_, refSess := govScenario(t, 0, 0)
	refReply := refSess.frame(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetPlaying, Flag: 0},
	}})
	fullPoints := refReply.TotalPoints()
	if fullPoints == 0 {
		t.Fatal("reference scene has no geometry")
	}

	// Governed server: 4 rakes x 32 seeds x 200 steps x 9 units x
	// 100ns/unit predicts ~23ms per frame; a 2ms budget overloads it.
	s, d := govScenario(t, 2*time.Millisecond, 100)
	shedReply := d.frame(wire.ClientUpdate{})
	if shedReply.Degraded == 0 {
		t.Fatal("overloaded frame not marked degraded")
	}
	if got := shedReply.TotalPoints(); got >= fullPoints {
		t.Errorf("degraded frame ships %d points, ungoverned ships %d", got, fullPoints)
	}
	if st := s.Stats(); st.FramesShed == 0 {
		t.Errorf("FramesShed not counted: %+v", st)
	}

	// Load drops: playback stops, rakes go clean. The governor must
	// walk the scene back to full fidelity within a bounded number of
	// rounds (one forced upgrade per idle round at worst).
	r := d.frame(wire.ClientUpdate{Commands: []wire.Command{
		{Kind: wire.CmdSetPlaying, Flag: 0},
	}})
	for i := 0; i < 16 && r.Degraded != 0; i++ {
		r = d.frame(wire.ClientUpdate{})
	}
	if r.Degraded != 0 {
		t.Fatalf("scene still degraded (byte %d) after recovery rounds", r.Degraded)
	}
	if got := r.TotalPoints(); got != fullPoints {
		t.Errorf("recovered frame ships %d points, want full %d", got, fullPoints)
	}
}

// TestGovernorShedMonotoneAcrossBudgets checks the server-level
// monotonicity: the same overloaded scene under a tighter budget never
// ships more points.
func TestGovernorShedMonotoneAcrossBudgets(t *testing.T) {
	budgets := []time.Duration{
		500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
		5 * time.Millisecond, 30 * time.Millisecond,
	}
	var prev int
	for i, b := range budgets {
		_, d := govScenario(t, b, 100)
		r := d.frame(wire.ClientUpdate{})
		got := r.TotalPoints()
		if i > 0 && got < prev {
			t.Errorf("budget %v ships %d points, tighter %v shipped %d",
				b, got, budgets[i-1], prev)
		}
		prev = got
	}
}

// TestGovernorDeterministicAcrossRuns: two identical governed runs on
// ManualClocks produce byte-identical frame sequences — shed decisions
// included (nanos are zero under a ManualClock, and Round sequences
// match, so full byte equality holds).
func TestGovernorDeterministicAcrossRuns(t *testing.T) {
	run := func() [][]byte {
		_, d := govScenario(t, 2*time.Millisecond, 100)
		var frames [][]byte
		for i := 0; i < 10; i++ {
			frames = append(frames, d.rawFrame(wire.ClientUpdate{}))
		}
		frames = append(frames, d.rawFrame(wire.ClientUpdate{Commands: []wire.Command{
			{Kind: wire.CmdSetPlaying, Flag: 0},
		}}))
		for i := 0; i < 6; i++ {
			frames = append(frames, d.rawFrame(wire.ClientUpdate{}))
		}
		return frames
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("governed frame %d differs between identical runs", i)
		}
	}
}

// TestGovernorNeverStarvesServer: even a 1ns budget ships geometry for
// every rake, every frame.
func TestGovernorNeverStarvesServer(t *testing.T) {
	_, d := govScenario(t, 1, 1000)
	for i := 0; i < 5; i++ {
		r := d.frame(wire.ClientUpdate{})
		if len(r.Geometry) != 4 {
			t.Fatalf("frame %d ships %d geometries, want 4", i, len(r.Geometry))
		}
		for _, g := range r.Geometry {
			if g.NumPoints() == 0 {
				t.Fatalf("frame %d rake %d starved to zero points", i, g.Rake)
			}
		}
		if r.Degraded == 0 {
			t.Errorf("frame %d under a 1ns budget not marked degraded", i)
		}
	}
}

// TestGovernorHeldRakeKeepsFidelity: under partial overload the
// FCFS-grabbed rake keeps more of its work than free rakes.
func TestGovernorHeldRakeKeepsFidelity(t *testing.T) {
	// Budget sized so the held class fits whole but the free class
	// must shed: full cost ~23ms, one rake ~5.76ms at 100ns/unit.
	_, d := govScenario(t, 7*time.Millisecond, 100)
	r := d.frame(wire.ClientUpdate{})
	grab := wire.Command{Kind: wire.CmdGrab, Rake: r.Rakes[0].ID, Grab: uint8(integrate.GrabCenter)}
	r = d.frame(wire.ClientUpdate{Commands: []wire.Command{grab}})
	if r.Degraded == 0 {
		t.Fatal("partially overloaded frame not degraded")
	}
	var heldPts, freeMax int
	for _, g := range r.Geometry {
		if g.Rake == r.Rakes[0].ID {
			heldPts = g.NumPoints()
		} else if n := g.NumPoints(); n > freeMax {
			freeMax = n
		}
	}
	if heldPts <= freeMax {
		t.Errorf("held rake ships %d points, free rakes up to %d — held must degrade last",
			heldPts, freeMax)
	}
}
