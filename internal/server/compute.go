package server

// The compute layer: timestep loading, dirty-rake planning under the
// frame-budget governor, and the round's one worker pool (pool.go),
// which runs streamline/path/streak integration and the shared tools'
// derive and march side by side, each producer finishing with its own
// codec-v2 segment. It is driven only through recomputeLocked and knows
// nothing about sessions or relays — the session layer (session.go)
// decides when a round advances and how its bytes reach each consumer,
// and encodes the shared codec-v1 reply the first time one asks.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/compute"
	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// maxStreakParticles bounds each streakline rake's particle count.
const maxStreakParticles = 20000

// segCache is what every geometry source — a rake or a shared tool —
// hands the round: its codec-v2 identity, its encode-once segment, and
// its share of the round's totals. Both memo types embed it, so the
// session layer serves rakes and tools from one list without knowing
// which is which.
type segCache struct {
	// key names the source in relay directories: the rake id, or -kind
	// for a shared tool.
	key int32
	// seq numbers the source's geometry content: it changes exactly
	// when a recompute rewrites the geometry, so a session (or relay)
	// whose shadow holds (key, seq) can be sent a reference instead of
	// the points. seg is the encoded v2 segment of that geometry, written
	// by the pool unit that rewrote it and shared by every session that
	// needs the full geometry.
	seq uint64
	seg []byte

	points int64 // points in the cached geometry
	// fullU and actualU are the units and planned units of the ladder
	// row the cached geometry was computed from, in §5.3 units. A rake
	// memo hit requires them equal; a valid-but-shed entry is an upgrade
	// candidate the governor re-admits when load drops, and the gap
	// feeds the frame's degradation byte.
	fullU, actualU int64
}

// rakeGeom memoizes one rake's geometry and the inputs it was computed
// from. Streamlines and particle paths are pure functions of (rake
// version, timestep, time), so matching inputs mean the cached
// wire.Geometry is the answer; streaklines always advance and are
// never memoized, and a streakline rake's entry carries its particles
// (streak) from round to round. The line buffers are recycled on
// recompute.
type rakeGeom struct {
	segCache
	haveGeo bool
	version uint64  // rake mutation counter at compute time
	step    int     // timestep the field came from
	timeKey float32 // continuous time the integrators saw

	seeds        []vmath.Vec3 // cached SeedsGrid, keyed by seedsVersion
	seedsVersion uint64
	haveSeeds    bool

	geo    wire.Geometry
	streak *integrate.Streak
	touch  uint64 // last round this rake was seen, for sweeping
}

// rakeJob is one dirty rake queued for recomputation.
type rakeJob struct {
	idx    int // index into the round's meta.Geometry
	snap   env.RakeSnapshot
	gc     *rakeGeom
	streak *integrate.Streak // non-nil for streakline rakes

	// upgrade marks a rake whose memo is valid but was computed at shed
	// fidelity; the governor either re-admits it to full fidelity or
	// leaves it on the clamped memo.
	upgrade bool
	// plan is the job's row of the governor's ladder for this round: the
	// level to integrate at, or skip to keep serving the memo.
	plan *demand
}

// recomputeLocked advances the round. Whole-frame memo: if nothing
// observable changed and no streakline needs advancing, the previous
// round's bytes are this round's bytes — the round is served again (same
// Round on the wire, so clients can tell the scene held still) with its
// round list as it stands, and its codec-v1 reply if one was ever asked
// for. This is also what makes identical frames encode byte-identically.
// A degraded frame is never frozen this way: the round must rerun so the
// governor can admit upgrades and restore full fidelity. Otherwise
// computeRoundLocked fills a fresh round. Either way every session may
// consume the round again, and it is booked. Caller holds s.mu.
//
//vw:hotpath
func (s *Server) recomputeLocked() error {
	ts := s.env.AdvanceTime()
	version := s.env.Version()
	step := ts.Step()
	r := &s.round
	if r.meta.Round != 0 && version == r.version &&
		step == s.curStep && !r.streaking && r.meta.Degraded == 0 {
		s.stats.FramesReused++
	} else if err := s.computeRoundLocked(ts, version, step); err != nil {
		return err
	}
	r.serves++
	s.stats.Frames++
	s.stats.Points += r.points
	s.stats.ToolPoints += r.toolPoints
	return nil
}

// computeRoundLocked fills a fresh round, stage by stage: load the
// timestep, collect the scene and plan the dirty rakes and tools, run
// every producer on the round's pool, number what was rewritten (tools
// in table order, then jobs in job order), and total the round. Each
// stage is a plain function that fills its part of s.round; what else
// one hands the next is in its signature. A failed load leaves the
// round as it was. Caller holds s.mu.
//
//vw:hotpath
func (s *Server) computeRoundLocked(ts env.TimeState, version uint64, step int) error {
	step, loadTime, err := s.loadRoundStepLocked(ts, step)
	if err != nil {
		return err
	}

	computeStart := s.cfg.Clock.Now()
	g := s.src.Grid()
	r := &s.round
	r.meta.Round++
	reused := s.collectLocked(g, ts, step)
	predicted := s.planJobsLocked()
	s.collectToolsLocked(g, step)
	s.runJobsLocked(g, ts, step)
	computeTime := s.cfg.Clock.Now().Sub(computeStart)

	toolUnits := s.numberToolsLocked()
	computed, jobUnits := s.numberJobsLocked()
	s.gov.observe(computeTime, jobUnits+toolUnits)
	reused += len(s.jobs) - computed
	shedFrac := s.totalRoundLocked(ts, loadTime, computeTime)
	r.version = version

	s.stats.FramesEncoded++
	s.stats.ComputeTime += computeTime
	s.stats.LoadTime += loadTime
	s.stats.RakesComputed += int64(computed)
	s.stats.RakesReused += int64(reused)
	s.stats.PredictedTime += predicted
	s.stats.ShedSum += shedFrac
	if r.meta.Degraded > 0 {
		s.stats.FramesShed++
	}
	return nil
}

// loadRoundStepLocked is the load stage: it tells the source where the
// play stands — the step, the level particle paths start in (ts.Current
// rounded down: one below the step when that was rounded up), which way
// and whether around the ends time runs, and how many levels past that
// paths have been seen to reach (§5.1: "the current timestep plus the
// maximum particle path length"). The source keeps those levels
// resident until the next round and may start reading the ones the
// play touches next while this round computes (figure 8). The stage
// then makes the step the source serves resident as s.cur, and returns
// that step and the time spent waiting for it. The wait is also the
// governor's backpressure: a round that stalled on a disk read or on a
// live solver producing its step sheds integration to make room.
func (s *Server) loadRoundStepLocked(ts env.TimeState, step int) (int, time.Duration, error) {
	step = s.src.Follow(store.Play{
		Step: step, First: min(step, int(ts.Current)),
		Reverse: ts.Speed < 0, Loop: ts.Loop, Reach: s.pathReach,
	})
	loadStart := s.cfg.Clock.Now()
	if s.cur == nil || step != s.curStep {
		f, err := s.src.LoadStep(step)
		if err != nil {
			return 0, 0, fmt.Errorf("server: load step %d: %w", step, err)
		}
		s.cur = f
		s.curStep = step
	}
	loadTime := s.cfg.Clock.Now().Sub(loadStart)
	s.gov.notePressure(loadTime)
	return step, loadTime, nil
}

// collectLocked is the collect stage: it snapshots users, rakes, and
// tools into the round's header, refreshes seed caches, starts the round
// list with every rake that has geometry, and splits those rakes into
// memo hits (returned as a count) and s.jobs for the planner.
func (s *Server) collectLocked(g *grid.Grid, ts env.TimeState, step int) (reused int) {
	// Snapshot the shared tools once per round; the planner and the
	// tool pass both read this copy so they cannot disagree.
	s.toolSnap = s.env.Tools()
	r := &s.round

	s.userScratch = s.env.AppendUsers(s.userScratch[:0])
	r.meta.Users = r.meta.Users[:0]
	for _, u := range s.userScratch {
		r.meta.Users = append(r.meta.Users, wire.UserState{
			ID: u.ID, Head: u.Pose.Head, Hand: u.Pose.Hand, Gesture: u.Pose.Gesture,
		})
	}

	s.rakeScratch = s.env.AppendRakes(s.rakeScratch[:0])
	r.meta.Rakes = r.meta.Rakes[:0]
	r.meta.Geometry = r.meta.Geometry[:0]
	r.segs = r.segs[:0]
	r.streaking = false
	s.jobs = s.jobs[:0]
	for _, snap := range s.rakeScratch {
		rake := snap.Rake
		r.meta.Rakes = append(r.meta.Rakes, wire.RakeState{
			ID: rake.ID, P0: rake.P0, P1: rake.P1,
			NumSeeds: uint32(rake.NumSeeds),
			Tool:     uint8(rake.Tool),
			Holder:   snap.Holder,
			Grab:     uint8(snap.Grab),
		})
		gc := s.geoCache[rake.ID]
		if gc == nil {
			gc = &rakeGeom{segCache: segCache{key: rake.ID}}
			s.geoCache[rake.ID] = gc
		}
		gc.touch = r.meta.Round
		if !gc.haveSeeds || gc.seedsVersion != snap.Version {
			gc.seeds = rake.SeedsGrid(g)
			gc.seedsVersion = snap.Version
			gc.haveSeeds = true
		}
		if len(gc.seeds) == 0 {
			continue
		}
		// Memo hits and held-last skips serve gc.geo as it stands;
		// numberJobsLocked refreshes the entries a job rewrites.
		idx := len(r.meta.Geometry)
		r.meta.Geometry = append(r.meta.Geometry, gc.geo)
		r.segs = append(r.segs, &gc.segCache)
		memoValid := rake.Tool != integrate.ToolStreakline && gc.haveGeo &&
			gc.version == snap.Version && gc.step == step && gc.timeKey == ts.Current
		if memoValid && gc.actualU == gc.fullU {
			reused++
			continue
		}
		var streak *integrate.Streak
		if rake.Tool == integrate.ToolStreakline {
			if gc.streak == nil {
				gc.streak = integrate.NewStreak(maxStreakParticles)
			}
			streak = gc.streak
			r.streaking = true
		}
		// A valid-but-shed memo is an upgrade candidate: the planner
		// either re-admits it to full fidelity or keeps serving the
		// clamped geometry.
		s.jobs = append(s.jobs, rakeJob{idx: idx, snap: snap, gc: gc, streak: streak, upgrade: memoValid})
	}
	if len(s.geoCache) > len(s.rakeScratch) {
		// Every live rake has an entry by now, so a surplus is a removed
		// rake's: sweep the entries not seen this round.
		for id, gc := range s.geoCache {
			if gc.touch != r.meta.Round {
				delete(s.geoCache, id)
			}
		}
	}
	return reused
}

// numberJobsLocked assigns codec-v2 sequence numbers to the rakes this
// round recomputed, in job order: serial, deterministic, and bumped
// exactly when a rake's geometry was rewritten. Delta encoders key
// their shadows on these. Tool geometry took its numbers first, in
// numberToolsLocked in fixed tool order — the order is on the wire, so
// it is neither the round list's nor the pool's. Each rewritten rake
// books its row: the full and planned §5.3 units its memo now stands
// for. Returns the recomputed count and the planned units they booked,
// for the governor's EWMA.
func (s *Server) numberJobsLocked() (computed int, units int64) {
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.plan.skip {
			continue
		}
		gc := j.gc
		s.numberLocked(&gc.segCache)
		s.round.meta.Geometry[j.idx] = gc.geo
		gc.fullU, gc.actualU = j.plan.units, j.plan.planned
		computed++
		units += j.plan.planned
	}
	return computed, units
}

// numberLocked takes the next geometry sequence number for a source a
// pool job rewrote, and books the segment the job wrote with it.
func (s *Server) numberLocked(sc *segCache) {
	s.geoSeq++
	sc.seq = s.geoSeq
	s.stats.SegmentsEncoded++
}

// totalRoundLocked closes the round: it totals the round list, derives
// the degradation byte, fixes the rest of the round's header (the shared
// payload every codec-v2 session marries to the cached segments through
// its own delta shadow) and marks the shared codec-v1 reply stale. The
// reply itself is encoded by v1ReplyLocked, the first time a consumer
// asks for it. Returns the fraction of the round's work shed.
func (s *Server) totalRoundLocked(ts env.TimeState, loadTime, computeTime time.Duration) (shedFrac float64) {
	r := &s.round
	var fullU, actualU int64
	r.points, r.toolPoints = 0, 0
	for i, sc := range r.segs {
		if i < len(r.meta.Geometry) {
			r.points += sc.points
		} else {
			r.toolPoints += sc.points
		}
		fullU += sc.fullU
		actualU += sc.actualU
	}
	r.meta.Degraded = degradedByte(actualU, fullU)
	if fullU > 0 {
		shedFrac = 1 - float64(actualU)/float64(fullU)
	}
	r.meta.Time = wire.TimeStatus{
		Current:  ts.Current,
		Speed:    ts.Speed,
		Playing:  ts.Playing,
		Loop:     ts.Loop,
		NumSteps: uint32(ts.NumSteps),
	}
	r.meta.ComputeNanos = computeTime.Nanoseconds()
	r.meta.LoadNanos = loadTime.Nanoseconds()
	r.v1Ready = false
	return shedFrac
}

// planJobsLocked is the plan stage: it lays the round's sources out as
// the governor's ladder — the shared tools in table order, then one row
// per job — and lets the governor decide every stride and level in one
// pass. computeRake and computeToolsLocked read the decisions from the
// rows. Caller holds s.mu.
func (s *Server) planJobsLocked() time.Duration {
	g := s.src.Grid()
	s.rows = s.rows[:0]
	for i, t := range s.toolSnap {
		d := demand{class: classTool}
		if t.Params.Enabled {
			// Enabled tools are charged whether or not their memo will
			// hit: the stride is chosen before the memo is consulted.
			for k, stride := range toolStrides {
				d.rungs[k] = toolKinds[i].units(g, t.Params, stride)
			}
			d.units = d.rungs[0]
		}
		s.rows = append(s.rows, d)
	}
	upp := compute.UnitsPerPoint(s.cfg.Options.Method)
	for i := range s.jobs {
		j := &s.jobs[i]
		d := demand{
			class: classFree, upgrade: j.upgrade,
			seeds: len(j.gc.seeds), steps: s.cfg.Options.MaxSteps, perPoint: upp,
		}
		d.units = int64(d.seeds) * int64(d.steps) * upp
		if j.streak != nil {
			// Streaklines advance existing particles plus one emission
			// per seed; they are priced but never clamped. Never an
			// upgrade candidate: collectLocked's memoValid excludes them.
			d.class = classFixed
			d.units = (int64(len(j.streak.Particles)) + int64(d.seeds)) * upp
		} else if j.snap.Holder != 0 {
			d.class = classHeld
		}
		s.rows = append(s.rows, d)
	}
	predicted, _ := s.gov.plan(s.rows)
	var planned int64
	for i := range s.jobs {
		j := &s.jobs[i]
		j.plan = &s.rows[env.NumTools+i]
		planned += j.plan.planned
	}
	s.stats.PlannedTime += s.gov.predict(planned)
	return predicted
}

// computeRake recomputes one rake's geometry into its memo entry at
// the planned fidelity — the engine's physical lines as they come, a
// streakline's particles converted into the previous round's line
// buffers — and, once the server has seen a codec-v2 consumer, writes
// the geometry's v2 segment while the points are still in cache. Runs
// on pool workers; touches nothing beyond the job's own entries.
//
//vw:hotpath
func (rc *roundCtx) computeRake(j *rakeJob) {
	batch, paths, g, ts, step := rc.batch, rc.paths, rc.g, rc.ts, rc.step
	if j.plan.skip {
		// The governor kept this rake's shed-fidelity memo; the round
		// serves gc.geo verbatim.
		return
	}
	rake := j.snap.Rake
	gc := j.gc
	seeds := gc.seeds
	opts := rc.opts
	if j.streak == nil {
		// Shed levels: a prefix of the seed row and a truncated step
		// bound, so a tighter budget strictly shrinks the output.
		lv := j.plan.level
		if lv.Seeds > 0 && lv.Seeds < len(seeds) {
			seeds = seeds[:lv.Seeds]
		}
		if lv.Steps > 0 && lv.Steps < opts.MaxSteps {
			opts.MaxSteps = lv.Steps
		}
	}
	eng := rc.eng
	var lines [][]vmath.Vec3
	switch rake.Tool {
	case integrate.ToolStreamline:
		lines, _ = eng.Streamlines(batch, seeds, ts.Current, opts) //vw:allow hotpath -- one box per dirty rake, not per point
	case integrate.ToolParticlePath:
		lines, _ = eng.ParticlePaths(paths, seeds, ts.Current, float32(ts.NumSteps-1), opts)
	case integrate.ToolStreakline:
		j.streak.Advance(batch, seeds, ts.Current, opts.StepSize, opts.Method) //vw:allow hotpath -- one box per dirty rake, not per point
		lines = toPhysicalLinesInto(g, j.streak.PolylineBySeed(rake.NumSeeds), gc.geo.Lines)
	}
	gc.geo = wire.Geometry{
		Rake:  rake.ID,
		Tool:  uint8(rake.Tool),
		Lines: lines,
	}
	gc.points = int64(gc.geo.NumPoints())
	gc.haveGeo = true
	gc.version = j.snap.Version
	gc.step = step
	gc.timeKey = ts.Current
	gc.seg = wire.AppendGeomV2(gc.seg[:0], gc.geo, rc.quant)
}

// bookPathLoadsLocked closes the round's books on the store sampler,
// once the workers are done with it: its failed-load count moves into
// the stats, and the number of levels it held widens the reach of the
// resident window — never past the levels MaxSteps steps of StepSize
// can span.
func (s *Server) bookPathLoadsLocked() {
	s.stats.PathLoadFailures += s.pathLevels.failed
	s.pathLevels.failed = 0
	o := s.cfg.Options
	span := math.Ceil(float64(o.MaxSteps)*math.Abs(float64(o.StepSize))) + 2
	s.pathReach = max(s.pathReach, min(len(s.pathLevels.cache), int(span)))
}

// storeSampler samples the server's source with linear time
// interpolation, caching loaded levels for the duration of one round
// (particle paths revisit the same bracketing steps for every seed of
// every rake). It is an integrate.Sampler: the kernel asks it for a
// level per bracket change, so the lock stays off the per-sample path.
type storeSampler struct {
	st store.Store
	// mu guards the fields below: the parallel engines resolve levels
	// from several goroutines.
	mu sync.Mutex
	// cache holds the levels loaded this round; a nil entry is a load
	// that failed, remembered so it is attempted once.
	cache map[int]*field.Field
	// failed counts the nil levels handed out: one per path the kernel
	// stopped for want of a timestep.
	failed int64
}

// reset points the sampler at src and forgets the previous round's
// levels: src held them only until this round's Follow.
func (ss *storeSampler) reset(src store.Store) {
	ss.st = src
	if ss.cache == nil {
		ss.cache = make(map[int]*field.Field)
	}
	clear(ss.cache)
}

// Grid implements integrate.Sampler.
func (ss *storeSampler) Grid() *grid.Grid { return ss.st.Grid() }

// NumLevels implements integrate.Sampler.
func (ss *storeSampler) NumLevels() int { return ss.st.NumSteps() }

// Level implements integrate.Sampler: it loads (and caches)
// timestep t, or returns nil if the load fails — the kernel ends the
// path there rather than crashing the frame.
func (ss *storeSampler) Level(t int) *field.Field {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	f, ok := ss.cache[t]
	if !ok {
		var err error
		if f, err = ss.st.LoadStep(t); err != nil {
			f = nil
		}
		ss.cache[t] = f
	}
	if f == nil {
		ss.failed++
	}
	return f
}

// toPhysicalLinesInto converts a streakline's grid-coordinate lines to
// physical coordinates, recycling prev's buffers (typically the same
// rake's previous round) where capacity allows.
//
//vw:hotpath
func toPhysicalLinesInto(g *grid.Grid, lines, prev [][]vmath.Vec3) [][]vmath.Vec3 {
	var out [][]vmath.Vec3
	if cap(prev) >= len(lines) {
		out = prev[:len(lines)]
	} else {
		out = make([][]vmath.Vec3, len(lines)) //vw:allow hotpath -- grow-once: only when a rake gains lines, then recycled every round
		copy(out, prev)
	}
	for i, l := range lines {
		out[i] = integrate.ToPhysicalInto(g, out[i], l)
	}
	return out
}
