package server

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// calibratedGovernor returns a governor with a hand-set ns/unit rate,
// so plan behavior is a pure function of the inputs (no wall clock).
func calibratedGovernor(budget time.Duration, unitNanos float64) *governor {
	return &governor{budget: budget, unitNanos: unitNanos}
}

// planRows builds n streamline rows of the given shape; the first
// nHeld are held, the rest free.
func planRows(n, nHeld, seeds, steps int) []demand {
	rows := make([]demand, n)
	for i := range rows {
		rows[i] = rakeRow(classFree, seeds, steps)
		if i < nHeld {
			rows[i].class = classHeld
		}
	}
	return rows
}

// rakeRow is one rake's row at RK2's 9 units/point.
func rakeRow(class shedClass, seeds, steps int) demand {
	return demand{
		class: class, seeds: seeds, steps: steps, perPoint: 9,
		units: int64(seeds) * int64(steps) * 9,
	}
}

// toolDemand is one shared tool's row: units at strides 1, 2, 4.
func toolDemand(u1, u2, u4 int64) demand {
	return demand{class: classTool, units: u1, rungs: [len(toolStrides)]int64{u1, u2, u4}}
}

// plannedUnits sums seeds x steps over the planned rake levels.
func plannedUnits(rows []demand) int64 {
	var u int64
	for _, d := range rows {
		if d.class != classTool {
			u += int64(d.level.Seeds) * int64(d.level.Steps)
		}
	}
	return u
}

// isFull reports whether the row was granted its full fidelity.
func isFull(d demand) bool {
	return d.stride == 1 && d.level == shedLevel{d.seeds, d.steps} && !d.skip
}

func TestPlanUncalibratedOrDisabledNeverSheds(t *testing.T) {
	for name, g := range map[string]*governor{
		"disabled":     calibratedGovernor(0, 100),
		"uncalibrated": {budget: time.Millisecond},
	} {
		rows := append(planRows(4, 0, 64, 200), toolDemand(1e9, 1e8, 1e7))
		_, shed := g.plan(rows)
		if shed {
			t.Errorf("%s governor shed", name)
		}
		for i, d := range rows {
			if !isFull(d) {
				t.Errorf("%s governor clamped row %d to stride %d level %+v", name, i, d.stride, d.level)
			}
		}
	}
}

func TestPlanUnderBudgetIsFullFidelity(t *testing.T) {
	// 4 rakes x 64 seeds x 200 steps x 9 units at 1ns/unit = ~0.46ms
	// predicted, plus a 1ms tool; a 100ms budget must pass everything
	// through.
	g := calibratedGovernor(100*time.Millisecond, 1)
	rows := append(planRows(4, 2, 64, 200), toolDemand(1e6, 1e5, 1e4))
	predicted, shed := g.plan(rows)
	if shed {
		t.Error("under-budget plan shed")
	}
	if predicted <= 0 {
		t.Errorf("predicted = %v, want > 0", predicted)
	}
	for i, d := range rows {
		if !isFull(d) {
			t.Errorf("row %d = stride %d level %+v, want full", i, d.stride, d.level)
		}
	}
}

// TestPlanMonotoneInBudget is the core shedding property: over a
// budget x rake-count table, with and without a shared tool in the
// frame, a tighter budget never yields more planned work — per rake, in
// total, or as a finer tool stride.
func TestPlanMonotoneInBudget(t *testing.T) {
	budgets := []time.Duration{
		10 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond,
	}
	for _, nRakes := range []int{1, 2, 4, 8, 16} {
		for _, nHeld := range []int{0, 1, nRakes / 2} {
			t.Run(fmt.Sprintf("rakes=%d held=%d", nRakes, nHeld), func(t *testing.T) {
				for _, tool := range []bool{false, true} {
					var prevTotal int64 = -1
					var prev []demand
					for bi, b := range budgets {
						g := calibratedGovernor(b, 50)
						rows := planRows(nRakes, nHeld, 64, 200)
						if tool {
							rows = append(rows, toolDemand(40000, 5000, 700))
						}
						g.plan(rows)
						total := plannedUnits(rows)
						if total < prevTotal {
							t.Errorf("tool=%v: budget %v planned %d units, tighter budget %v planned %d",
								tool, b, total, budgets[bi-1], prevTotal)
						}
						for i, d := range rows {
							if bi == 0 {
								break
							}
							if int64(d.level.Seeds)*int64(d.level.Steps) <
								int64(prev[i].level.Seeds)*int64(prev[i].level.Steps) || d.stride > prev[i].stride {
								t.Errorf("tool=%v: budget %v row %d = stride %d %+v, below tighter budget's stride %d %+v",
									tool, b, i, d.stride, d.level, prev[i].stride, prev[i].level)
							}
						}
						prevTotal, prev = total, rows
					}
				}
			})
		}
	}
}

// TestPlanNeverStarves pins the floors: even a hopeless budget leaves
// every rake at least one seed and the step floor, and every tool on
// the ladder's last stride rather than off it.
func TestPlanNeverStarves(t *testing.T) {
	for _, steps := range []int{200, 8, 5} {
		g := calibratedGovernor(1, 1000) // 1ns budget, expensive units
		rows := append(planRows(16, 3, 64, steps), toolDemand(4000, 500, 70))
		_, shed := g.plan(rows)
		if !shed {
			t.Fatalf("steps=%d: hopeless budget did not shed", steps)
		}
		wantSteps := min(minShedSteps, steps)
		for i, d := range rows {
			if d.class == classTool {
				if d.stride != toolStrides[len(toolStrides)-1] || d.planned != 70 {
					t.Errorf("steps=%d tool at stride %d (%d units), want the floor stride", steps, d.stride, d.planned)
				}
				continue
			}
			if d.level.Seeds < 1 {
				t.Errorf("steps=%d rake %d starved to %d seeds", steps, i, d.level.Seeds)
			}
			if d.level.Steps < wantSteps {
				t.Errorf("steps=%d rake %d below step floor: %d", steps, i, d.level.Steps)
			}
		}
	}
}

// TestPlanDeterministic: identical inputs, identical plan — across
// repeated calls and across separately constructed governors.
func TestPlanDeterministic(t *testing.T) {
	mk := func() []demand {
		rows := append(planRows(8, 2, 48, 150), toolDemand(9000, 1200, 160))
		up := rakeRow(classFree, 48, 150)
		up.upgrade = true
		return append(rows, up)
	}
	a, b := mk(), mk()
	g1 := calibratedGovernor(500*time.Microsecond, 37.5)
	g2 := calibratedGovernor(500*time.Microsecond, 37.5)
	p1, s1 := g1.plan(a)
	p2, s2 := g2.plan(b)
	g1.plan(a) // replanning the same rows changes nothing
	if p1 != p2 || s1 != s2 {
		t.Fatalf("plan outcomes differ: (%v,%v) vs (%v,%v)", p1, s1, p2, s2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPlanHeldRakesDegradeLast pins the FCFS priority: if any held
// rake lost fidelity, every free rake must already be at its floor.
func TestPlanHeldRakesDegradeLast(t *testing.T) {
	floor := shedOne(64, 200, 0)
	full := shedLevel{Seeds: 64, Steps: 200}
	// Sweep budgets from hopeless to roomy and check the invariant at
	// every point. (Full cost here is ~6.9ms at 10ns/unit; the held
	// class alone is ~2.3ms, so the sweep crosses every regime.)
	for b := time.Duration(1); b < 20*time.Millisecond; b *= 3 {
		rows := planRows(6, 2, 64, 200)
		calibratedGovernor(b, 10).plan(rows)
		heldShed := false
		for _, d := range rows {
			if d.class == classHeld && d.level != full {
				heldShed = true
			}
		}
		if heldShed {
			for i, d := range rows {
				if d.class == classFree && d.level != floor {
					t.Errorf("budget %v: held rake shed while free rake %d sits at %+v (floor %+v)",
						b, i, d.level, floor)
				}
			}
		}
	}
	// And a mid-range budget exists where free rakes shed but held
	// rakes keep full fidelity.
	seen := false
	for b := time.Duration(1); b < 20*time.Millisecond; b *= 2 {
		rows := planRows(6, 2, 64, 200)
		_, shed := calibratedGovernor(b, 10).plan(rows)
		heldFull := rows[0].level == full && rows[1].level == full
		freeShed := false
		for _, d := range rows[2:] {
			if d.level != full {
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
// rows are priced but never shed, at any budget.
func TestPlanFixedNeverClamped(t *testing.T) {
	g := calibratedGovernor(1, 1000)
	rows := planRows(3, 0, 64, 200)
	rows[1].class = classFixed
	g.plan(rows)
	if d := rows[1]; !isFull(d) || d.planned != d.units {
		t.Errorf("fixed row clamped to %+v (%d of %d units)", d.level, d.planned, d.units)
	}
}

// TestPlanUpgradeCandidates pins what the ladder does with valid memos
// computed at shed fidelity: re-admitted in row order while the frame
// stays in budget, never on a shedding round, and one forced through on
// an idle round so a paused scene always recovers.
func TestPlanUpgradeCandidates(t *testing.T) {
	up := func() demand {
		d := rakeRow(classFree, 64, 200) // 115200 units: 1.152ms at 10ns/unit
		d.upgrade = true
		return d
	}
	cases := []struct {
		name     string
		budget   time.Duration
		dirty    int
		ups      int
		wantSkip []bool
	}{
		{"room for all", 10 * time.Millisecond, 1, 2, []bool{false, false}},
		{"room for one beside the dirty rake", 3 * time.Millisecond, 1, 2, []bool{false, true}},
		{"shedding round admits none", time.Millisecond, 1, 2, []bool{true, true}},
		{"idle round forces the first", time.Millisecond, 0, 3, []bool{false, true, true}},
		{"idle round with room admits in order", 3 * time.Millisecond, 0, 3, []bool{false, false, true}},
	}
	for _, c := range cases {
		rows := planRows(c.dirty, 0, 64, 200)
		for i := 0; i < c.ups; i++ {
			rows = append(rows, up())
		}
		predicted, _ := calibratedGovernor(c.budget, 10).plan(rows)
		var wantPredicted time.Duration
		for i, d := range rows {
			if d.upgrade && d.skip != c.wantSkip[i-c.dirty] {
				t.Errorf("%s: candidate %d skip=%v, want %v", c.name, i-c.dirty, d.skip, c.wantSkip[i-c.dirty])
			}
			if !d.skip {
				wantPredicted += 1152 * time.Microsecond
			}
			if d.skip != (d.planned == 0) {
				t.Errorf("%s: row %d skip=%v but planned %d units", c.name, i, d.skip, d.planned)
			}
		}
		if predicted != wantPredicted {
			t.Errorf("%s: predicted %v, want %v (dirty rakes plus admitted candidates)", c.name, predicted, wantPredicted)
		}
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
// handler with a fixed session ctx.
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

// TestObserveStallCannotPinTheRate: one stalled round (a half-second
// stall in a ~5ms round, 100 times the rate) moves the estimate at most
// to twice the rate, so the rounds after it, each a free rake whose
// full cost at the true rate is 75% of the budget, do not shed. An
// uncapped sample would lift the estimate to about 20 times the rate
// and shed all four.
func TestObserveStallCannotPinTheRate(t *testing.T) {
	const round = 5 * time.Millisecond
	units := rakeRow(classFree, 64, 200).units
	g := &governor{budget: round * 4 / 3}
	for range 20 {
		g.observe(round, units)
	}
	g.observe(100*round, units)
	for i := range 4 {
		rows := []demand{rakeRow(classFree, 64, 200)}
		if _, shed := g.plan(rows); shed {
			t.Fatalf("round %d after the stall shed: estimate %.1f ns/unit, true rate %.1f",
				i, g.unitNanos, float64(round)/float64(units))
		}
		g.observe(round, units)
	}
}

// tickClock advances a fixed tick on every Now, so each measured stage
// lasts exactly as many ticks as it reads the clock.
type tickClock struct {
	mu   sync.Mutex
	now  time.Duration
	tick time.Duration
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += c.tick
	return time.Time{}.Add(c.now)
}

func (c *tickClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

// TestPredictionMatchesComputeOnShortPaths: the governor calibrates on
// the units it plans, so once calibrated it predicts what a round's
// compute stage measures — here one tick a round — even when every
// streamline leaves the domain long before MaxSteps and the engine does
// a fraction of the planned work.
func TestPredictionMatchesComputeOnShortPaths(t *testing.T) {
	const tick = time.Millisecond
	s, err := New(Config{Store: testDataset(t, 4), Clock: &tickClock{tick: tick}})
	if err != nil {
		t.Fatal(err)
	}
	d := newDirectSession(t, s, 1)
	const seeds = 16
	r := d.frame(wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(12, 2, 4), vmath.V3(12, 13, 4), seeds, integrate.ToolStreamline),
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}})
	if full := seeds * (s.cfg.Options.MaxSteps + 1); r.TotalPoints() == 0 || 4*r.TotalPoints() > full {
		t.Fatalf("scene ships %d points of a full %d: the paths must leave the domain early", r.TotalPoints(), full)
	}
	prev := s.Stats()
	for i := range 12 {
		d.frame(wire.ClientUpdate{})
		st := s.Stats()
		if st.FramesEncoded != prev.FramesEncoded+1 {
			t.Fatalf("round %d was not recomputed", i)
		}
		compute, predicted := st.ComputeTime-prev.ComputeTime, st.PredictedTime-prev.PredictedTime
		if compute != tick {
			t.Fatalf("round %d: compute stage %v, want one tick (%v)", i, compute, tick)
		}
		if diff := predicted - compute; diff < -1 || diff > 1 {
			t.Fatalf("round %d: predicted %v for a compute stage of %v", i, predicted, compute)
		}
		prev = st
	}
}

// TestDegradedWeighsEverySourceInPlannedUnits: a governed round that
// sheds a rake beside a coarsened tool grades its fidelity over every
// source in §5.3 units — the byte is degradedByte of the planned units
// over the full units, summed over the ladder's rows.
func TestDegradedWeighsEverySourceInPlannedUnits(t *testing.T) {
	// At 100ns/unit the rake's 32 x 200 x 9 units cost 5.76ms, so a 2ms
	// budget puts the isosurface on its floor stride and sheds the rake.
	s := toolData.server(t, 2*time.Millisecond, 100)
	if err := s.Env().SetTool(1, env.ToolIso, env.ToolParams{Enabled: true, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	d := newDirectSession(t, s, 1)
	r := d.frame(wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 3, 4), vmath.V3(1, 12, 4), 32, integrate.ToolStreamline),
	}})
	s.mu.Lock()
	rows := slices.Clone(s.rows)
	s.mu.Unlock()
	iso, rake := rows[env.ToolIso-1], rows[env.NumTools]
	if iso.stride == 1 || rake.planned >= rake.units {
		t.Fatalf("scenario does not shed: iso stride %d, rake planned %d of %d units", iso.stride, rake.planned, rake.units)
	}
	var planned, full int64
	for _, row := range rows {
		planned += row.planned
		full += row.units
	}
	if want := degradedByte(planned, full); r.Degraded != want || want == 0 {
		t.Fatalf("Degraded = %d, want %d (%d of %d units)", r.Degraded, want, planned, full)
	}
	if got, want := s.Stats().ShedSum, 1-float64(planned)/float64(full); got != want {
		t.Fatalf("ShedSum = %v, want %v", got, want)
	}
}
