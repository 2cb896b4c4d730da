package server

// The round's worker pool. Everything a round recomputes — each dirty
// rake's integration, the shared tools' derived fields, and each dirty
// tool's extraction — is laid out as one list of units that a fixed set
// of workers (the calling goroutine among them) claim from an atomic
// counter. A unit is independent of the others except through a phase:
// a march cannot start before the scalar it marches is derived, a slab
// cannot be filled before every slab is counted and the counts laid
// out. The list is in dependency order and claimed in list order, so
// whatever a unit waits for has already been claimed by a worker that is
// running it — waiting cannot deadlock, whatever the worker count.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/compute"
	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/wire"
)

// roundCtx is everything a pool worker may touch during one round,
// handed over by runJobsLocked — which holds s.mu and blocks until the
// workers are done, so none of it races with anything: the read-only
// inputs every unit shares, and the round's own mutable pieces, of
// which a unit writes only its rake's or tool's entry or its plane
// range of a derived field.
type roundCtx struct {
	g     *grid.Grid
	ts    env.TimeState
	step  int
	batch compute.SteadyBatch
	paths integrate.Sampler // nil unless a particle-path rake is dirty
	eng   compute.Engine
	opts  integrate.Options
	// seal says the server has seen a codec-v2 consumer, so the unit that
	// completes a source's geometry writes its v2 segment too, quantized
	// by quant.
	seal  bool
	quant wire.Quantizer

	jobs  []rakeJob
	tools *[env.NumTools]toolGeom
	scal  *toolScalars
	pool  *roundPool
}

type unitKind uint8

const (
	// unitRake recomputes job a.
	unitRake unitKind = iota
	// unitDerive converts k-planes [a, b) of the loaded step to physical
	// velocity and speed; unitQ derives their Q-criterion.
	unitDerive
	unitQ
	// unitCount counts slab b of tool a's marching plan; unitLayout
	// places the counted slabs and sizes the tool's point buffer and
	// segment; unitFill marches slab b into its range of the buffer and
	// quantizes it into its range of the segment.
	unitCount
	unitLayout
	unitFill
	// unitPlane samples tool a's cutting-plane hedgehog and seals it.
	unitPlane
)

// poolPhase names what a unit can wait for; the zero value is nothing.
type poolPhase uint8

const (
	phaseNone poolPhase = iota
	// phaseDerive: physical velocity and speed hold the loaded step;
	// phaseQ: so does the Q-criterion.
	phaseDerive
	phaseQ
	// phaseCount + tool index: every slab of the tool's plan is counted;
	// phaseLayout + tool index: the plan is laid out.
	phaseCount
	phaseLayout = phaseCount + env.NumTools
	numPhases   = phaseLayout + env.NumTools
)

// poolUnit is one claimable piece of a round's work.
type poolUnit struct {
	kind  unitKind
	a, b  int
	after poolPhase // must be complete before the unit runs
	phase poolPhase // the unit's completion counts toward this one
}

// roundPool is the unit list and its synchronisation, recycled across
// rounds. pending[p] counts what phase p still waits for.
type roundPool struct {
	units   []poolUnit
	next    atomic.Int64
	pending [numPhases]atomic.Int32
}

// add appends a unit, counting it toward its phase. (phaseNone's
// counter is written and never waited for.)
func (p *roundPool) add(u poolUnit) {
	p.pending[u.phase].Add(1)
	p.units = append(p.units, u)
}

// wait returns once phase ph is complete. The units it waits for are
// running on other workers and are short, so it yields rather than
// parks: waking a parked thread costs more than the wait (parking on a
// sync.WaitGroup measured 0.3-0.8 ms slower per heavy round).
func (p *roundPool) wait(ph poolPhase) {
	for ph != phaseNone && p.pending[ph].Load() > 0 {
		runtime.Gosched()
	}
}

// addPlanes splits a grid's nk k-planes into at most parts contiguous
// ranges and adds a unit of the given kind for each.
func (p *roundPool) addPlanes(kind unitKind, nk, parts int, after, phase poolPhase) {
	per := (nk + parts - 1) / parts
	for k := 0; k < nk; k += per {
		p.add(poolUnit{kind: kind, a: k, b: min(k+per, nk), after: after, phase: phase})
	}
}

// layoutUnitsLocked lists the round's work: rake jobs first — the
// coarse, indivisible units — then the tools' chain of short phases,
// which every worker joins as it runs out of rakes, so the round ends on
// fine-grained work. Caller holds s.mu.
func (s *Server) layoutUnitsLocked(g *grid.Grid) {
	p := &s.pool
	p.units = p.units[:0]
	p.next.Store(0)
	for i := range s.jobs {
		if !s.jobs[i].plan.skip {
			p.add(poolUnit{kind: unitRake, a: i})
		}
	}
	tc := &s.toolScal
	if !tc.derivable(g) {
		return // dirty tools keep the empty geometry collectToolsLocked left
	}
	workers := s.cfg.Engine.Workers()
	if tc.todo&(fieldPhys|fieldSpeed) != 0 {
		p.addPlanes(unitDerive, g.NK, workers, phaseNone, phaseDerive)
	}
	if tc.todo&fieldQ != 0 {
		p.addPlanes(unitQ, g.NK, workers, phaseDerive, phaseQ)
	}
	// Every marching tool's counts and layout, then every tool's fills: a
	// fill waits for its own tool's layout only, so while one worker lays
	// a tool out the others count the next.
	for i := range s.toolGeos {
		tg, counted, laidOut := &s.toolGeos[i], phaseCount+poolPhase(i), phaseLayout+poolPhase(i)
		switch {
		case !tg.dirty:
		case tg.from == fieldPhys:
			p.add(poolUnit{kind: unitPlane, a: i, after: phaseDerive})
		default:
			after := phaseDerive
			if tg.from == fieldQ {
				after = phaseQ
			}
			// Reset cannot fail: the scalar is sized to this grid and
			// every ladder stride is >= 1.
			_ = tg.plan.Reset(g, tc.scalar(tg.from), tg.params.Value, tg.stride, workers)
			for sl := 0; sl < tg.plan.Slabs(); sl++ {
				p.add(poolUnit{kind: unitCount, a: i, b: sl, after: after, phase: counted})
			}
			p.add(poolUnit{kind: unitLayout, a: i, after: counted, phase: laidOut})
		}
	}
	for i := range s.toolGeos {
		if tg := &s.toolGeos[i]; tg.dirty && tg.from != fieldPhys {
			for sl := 0; sl < tg.plan.Slabs(); sl++ {
				p.add(poolUnit{kind: unitFill, a: i, b: sl, after: phaseLayout + poolPhase(i)})
			}
		}
	}
}

// runJobsLocked executes the round's units on the bounded worker pool:
// the calling goroutine is worker 0 and extra workers are started only
// while there are units for them, so a round with one unit (or none)
// starts no goroutine and a round whose only dirty source is a tool
// still uses every worker. Each unit touches only its own rake's or
// tool's entries (or its own plane range of a derived field); shared
// inputs are read-only. Caller holds s.mu; the unit and job lists are
// frozen for the whole round and the caller blocks until every worker
// is done, so worker reads of server state race with nothing.
func (s *Server) runJobsLocked(g *grid.Grid, ts env.TimeState, step int) {
	s.layoutUnitsLocked(g)
	rc := &s.roundCtx
	*rc = roundCtx{
		g: g, ts: ts, step: step, batch: compute.SteadyBatch{F: s.cur, G: g},
		eng: s.cfg.Engine, opts: s.cfg.Options, seal: s.wantSegs, quant: s.quant,
		jobs: s.jobs, tools: &s.toolGeos, scal: &s.toolScal, pool: &s.pool,
	}
	// One time sampler per round, shared by every particle-path rake:
	// a level two rakes both need is looked up once.
	for i := range s.jobs {
		if j := &s.jobs[i]; j.snap.Rake.Tool == integrate.ToolParticlePath && !j.plan.skip {
			s.pathLevels.reset(s.src)
			rc.paths = &s.pathLevels
			break
		}
	}
	defer s.bookPathLoadsLocked()

	var wg sync.WaitGroup
	for w := 1; w < min(s.cfg.Engine.Workers(), len(s.pool.units)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.drain()
		}()
	}
	rc.drain()
	wg.Wait()
}

// drain claims and runs units until the list is exhausted.
func (rc *roundCtx) drain() {
	p := rc.pool
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.units) {
			return
		}
		u := &p.units[i]
		p.wait(u.after)
		rc.runUnit(u)
		p.pending[u.phase].Add(-1)
	}
}

// runUnit is one unit's work.
func (rc *roundCtx) runUnit(u *poolUnit) {
	switch u.kind {
	case unitRake:
		rc.computeRake(&rc.jobs[u.a])
	case unitDerive:
		rc.scal.derivePlanes(rc.g, u.a, u.b)
	case unitQ:
		field.QCriterionInto(rc.scal.q, rc.g, rc.scal.phys, u.a, u.b)
	case unitCount:
		rc.tools[u.a].plan.Count(u.b)
	case unitLayout:
		tg := &rc.tools[u.a]
		n := tg.plan.Layout()
		tg.geo.Points = slices.Grow(tg.geo.Points[:0], n)[:n]
		if rc.seal {
			tg.seg, tg.segFirst = wire.BeginToolGeomV2(tg.seg[:0], tg.geo.Tool, n)
			tg.sealed = true
		}
	case unitFill:
		tg := &rc.tools[u.a]
		lo, hi := tg.plan.Fill(u.b, tg.geo.Points)
		if rc.seal {
			wire.PutQuantPoints(tg.seg[tg.segFirst+lo*wire.QuantBytes:], tg.geo.Points[lo:hi], rc.quant)
		}
	case unitPlane:
		tg := &rc.tools[u.a]
		tg.geo.Points = appendPlaneHedgehog(tg.geo.Points[:0], rc.g, rc.scal.phys, tg.params.Axis, tg.params.Value, tg.stride)
		if rc.seal {
			tg.seg = wire.AppendToolGeomV2(tg.seg[:0], tg.geo, rc.quant)
			tg.sealed = true
		}
	}
}
