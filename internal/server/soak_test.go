package server

import (
	"flag"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// The governed soak: a fleet of direct sessions drives a deliberately
// overloaded playing scene for many rounds and checks the governor's
// contract on real measured time — the per-round integration stage
// stays at the budget (p99, with a small grace for EWMA prediction
// error), the same scene ungoverned costs at least twice that, and the
// steady-state loop does not grow its allocation rate.
//
// The round count rides -soakframes; `make soak` runs the long
// version:
//
//	go test ./internal/server/ -run TestSoakGovernedBudget -soakframes 2000

var soakFrames = flag.Int("soakframes", 0, "governed soak rounds (0 = auto: small in -short, modest otherwise)")

// soakSessions is the simulated fleet size; session 0 paces the
// rounds, the rest ride the encode-once fan-out.
const soakSessions = 8

// soakScene builds the overload scene: six wide streamline rakes under
// looping playback, so every round recomputes every rake.
func soakScene(t *testing.T, s *Server) []*directSession {
	t.Helper()
	fleet := make([]*directSession, soakSessions)
	for i := range fleet {
		fleet[i] = newDirectSession(t, s, int64(i+1))
	}
	cmds := []wire.Command{
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}
	for i := 0; i < 6; i++ {
		y := float32(2 + 2*i)
		cmds = append(cmds, addRakeCmd(vmath.V3(1, y, 2), vmath.V3(1, y+1, 6), 256, integrate.ToolStreamline))
	}
	fleet[0].frame(wire.ClientUpdate{Commands: cmds})
	return fleet
}

// soakRounds runs n fan-out cycles and returns the computing session's
// per-round integration-stage durations (the quantity the governor
// budgets), measured from the server's cumulative compute counter.
func soakRounds(t *testing.T, s *Server, fleet []*directSession, n int) []time.Duration {
	t.Helper()
	computeTimes := make([]time.Duration, 0, n)
	prev := s.Stats().ComputeTime
	for i := 0; i < n; i++ {
		for _, d := range fleet {
			d.frame(wire.ClientUpdate{})
		}
		now := s.Stats().ComputeTime
		computeTimes = append(computeTimes, now-prev)
		prev = now
	}
	return computeTimes
}

// durQuantile returns the nearest-rank q-quantile of samples.
func durQuantile(samples []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func TestSoakGovernedBudget(t *testing.T) {
	rounds := *soakFrames
	if rounds == 0 {
		rounds = 60
		if testing.Short() {
			rounds = 30
		}
	}

	// Calibration phase: the same scene ungoverned, on the real clock,
	// to learn what a full-fidelity round costs on this machine.
	ungov, err := New(Config{Store: testDataset(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	ungovTimes := soakRounds(t, ungov, soakScene(t, ungov), 15)
	ungovMed := durQuantile(ungovTimes, 0.50)
	if ungovMed <= 0 {
		t.Fatal("calibration measured zero-cost rounds")
	}

	// The overload condition the issue's acceptance asks for: pick the
	// budget so the ungoverned scene costs >= 2.5x of it.
	budget := ungovMed * 2 / 5
	gov, err := New(Config{Store: testDataset(t, 4), Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	fleet := soakScene(t, gov)
	// Warm the EWMA: the first frames run full fidelity while the
	// governor learns the ns/unit rate.
	soakRounds(t, gov, fleet, 5)

	half := rounds / 2
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	firstHalf := soakRounds(t, gov, fleet, half)
	runtime.ReadMemStats(&m1)
	secondHalf := soakRounds(t, gov, fleet, rounds-half)
	runtime.ReadMemStats(&m2)
	all := append(firstHalf, secondHalf...)

	// The tail quantile needs samples behind it: the short in-test run
	// checks p90 (p99 over 60 rounds is just the max, and `go test
	// ./...` runs this concurrently with other packages' tests), the
	// long `make soak` run checks the real p99.
	q, qName := 0.90, "p90"
	if rounds >= 500 {
		q, qName = 0.99, "p99"
	}
	tail := durQuantile(all, q)
	govMed := durQuantile(all, 0.50)
	t.Logf("rounds=%d budget=%v governed p50=%v %s=%v; ungoverned p50=%v",
		rounds, budget, govMed, qName, tail, ungovMed)

	// The governor plans the compute stage to fill (not undershoot) the
	// budget, so its contract is: median at the budget, tail bounded.
	// The tail grace depends on the quantile: p90 carries 50% for EWMA
	// prediction error; the long-run p99 also absorbs GC pauses and
	// scheduler preemption the planner cannot see in advance, so it
	// carries 100% — still far under the ungoverned cost it replaced.
	grace, ungovLimit := budget/2, ungovMed*3/4
	if q == 0.99 {
		grace, ungovLimit = budget, ungovMed
	}
	if limit := budget + budget/10; govMed > limit {
		t.Errorf("governed compute p50 = %v, budget %v (limit %v)", govMed, budget, limit)
	}
	if limit := budget + grace; tail > limit {
		t.Errorf("governed compute %s = %v, budget %v (limit with grace %v)", qName, tail, budget, limit)
	}
	if tail > ungovLimit {
		t.Errorf("governed compute %s = %v, not clearly under the ungoverned median %v", qName, tail, ungovMed)
	}
	// And the overload is real: ungoverned median at least 2x budget.
	if ungovMed < 2*budget {
		t.Errorf("ungoverned median %v is under 2x budget %v — scene not overloaded", ungovMed, budget)
	}
	st := gov.Stats()
	if st.FramesShed == 0 {
		t.Error("soak ran without a single shed frame")
	}
	if st.PredictedTime == 0 {
		t.Error("governor recorded no predictions")
	}

	// Allocation-rate stability: the second half must not allocate
	// meaningfully more per round than the first (steady-state scratch
	// reuse; 1.5x plus a small constant absorbs GC timing noise).
	perRound1 := (m1.Mallocs - m0.Mallocs) / uint64(half)
	perRound2 := (m2.Mallocs - m1.Mallocs) / uint64(rounds-half)
	t.Logf("mallocs/round: first half %d, second half %d", perRound1, perRound2)
	if perRound2 > perRound1+perRound1/2+64 {
		t.Errorf("allocation growth: %d mallocs/round in second half vs %d in first",
			perRound2, perRound1)
	}
}

// TestSoakLiveOverload is the in-situ soak: a live producer with a
// deliberately small history window feeds an overloaded governed fleet
// of soakSessions direct sessions under a ManualClock. The contract:
// the governor sheds (in plan space — the ManualClock makes the plans
// replayable) before the ring ever starves a session, the planned
// per-round cost holds the budget at the tail quantile, the window
// recycles buffers under steady playback, and the pin barrier defers
// eviction rather than dropping a step an in-flight tracer references
// — every frame in the run must succeed.
//
// The round count rides the same -soakframes flag as the governed
// soak; `make soak` runs the long version of both.
func TestSoakLiveOverload(t *testing.T) {
	rounds := *soakFrames
	if rounds == 0 {
		rounds = 40
		if testing.Short() {
			rounds = 20
		}
	}
	spec, sopts := liveSpec()
	spec.NumSteps = rounds + 8
	budget := 2 * time.Millisecond
	// Window 2 is the tightest history the scene survives: the eviction
	// limit then sits one step past the tracer's pin, so every publish
	// during the path's forward drive exercises the pin barrier.
	s, lv := liveServer(t, spec, sopts, 2, Config{Budget: budget})
	s.gov.unitNanos = 100 // hand-calibrated: the ManualClock freezes the EWMA

	fleet := make([]*directSession, soakSessions)
	for i := range fleet {
		fleet[i] = newDirectSession(t, s, int64(i+1))
	}
	g := s.src.Grid()
	cmds := []wire.Command{
		{Kind: wire.CmdSetSpeed, Value: 1},
		{Kind: wire.CmdSetPlaying, Flag: 1},
		// The history consumer: smoke that must never lose a step it
		// references.
		addRakeCmd(boundsAt(g, 0.5, 0.45, 0.6), boundsAt(g, 0.5, 0.65, 0.6), 3, integrate.ToolStreakline),
	}
	// The overload: wide streamline rakes whose full-fidelity plan far
	// exceeds the budget (6 * 256 seeds * default steps at 100 ns/unit).
	for i := 0; i < 6; i++ {
		fy := 0.2 + 0.1*float32(i)
		cmds = append(cmds, addRakeCmd(boundsAt(g, 0.6, fy, 0.4), boundsAt(g, 0.6, fy+0.05, 0.6), 256, integrate.ToolStreamline))
	}
	fleet[0].frame(wire.ClientUpdate{Commands: cmds})

	// Run the fleet. Halfway in, a particle-path rake joins: its tracer
	// pins the serving step while it drives the producer far past the
	// window — the eviction-while-integrating case the pin barrier
	// exists for.
	half := rounds / 2
	preds := make([]time.Duration, 0, rounds)
	prev := s.Stats().PlannedTime
	var last wire.FrameReply
	for i := 0; i < rounds; i++ {
		if i == half {
			fleet[0].frame(wire.ClientUpdate{Commands: []wire.Command{
				addRakeCmd(boundsAt(g, 0.55, 0.4, 0.4), boundsAt(g, 0.55, 0.6, 0.4), 2, integrate.ToolParticlePath),
			}})
		}
		for _, d := range fleet {
			last = d.frame(wire.ClientUpdate{})
		}
		now := s.Stats().PlannedTime
		preds = append(preds, now-prev)
		prev = now
	}
	if last.TotalPoints() == 0 {
		t.Error("fleet finished with an empty frame")
	}

	// Governor: it shed, and the planned per-round cost holds the
	// budget at the tail (p90 for the in-test run, real p99 for the
	// long `make soak` run; the grace absorbs the unshed-able floors —
	// streakline state and per-rake minimums the planner cannot cut).
	st := s.Stats()
	if st.FramesShed == 0 {
		t.Error("live soak ran without a single shed frame")
	}
	q, qName := 0.90, "p90"
	if rounds >= 500 {
		q, qName = 0.99, "p99"
	}
	tail := durQuantile(preds, q)
	t.Logf("rounds=%d budget=%v planned p50=%v %s=%v shed=%d",
		rounds, budget, durQuantile(preds, 0.50), qName, tail, st.FramesShed)
	if limit := budget + budget/2; tail > limit {
		t.Errorf("planned per-round cost %s = %v over budget %v (limit %v)", qName, tail, budget, limit)
	}

	// Ring: the producer ran the whole horizon, the small window
	// recycled buffers under steady playback before the path rake
	// arrived, and the pin barrier deferred evictions afterwards —
	// and despite all that churn, no session ever saw a failed load
	// (every d.frame above fatals on error: shed, never starved).
	rs := lv.Ring().Stats()
	t.Logf("ring: produced=%d recycled=%d deferred=%d clamped=%d", rs.Produced, rs.Recycled, rs.Deferred, rs.Clamped)
	if rs.Produced < int64(rounds) {
		t.Errorf("producer sealed %d steps over %d rounds", rs.Produced, rounds)
	}
	if rs.Recycled == 0 {
		t.Error("history window never recycled a buffer — the soak exerted no memory pressure")
	}
	if rs.Deferred == 0 {
		t.Error("pin barrier never deferred an eviction — the integrating tracer was unprotected")
	}
}
