// The frame-budget governor. The paper's real-time constraint (§5.3,
// Table 3) is that integration throughput bounds how many path points
// fit in a 0.1 s frame: the Convex served however many particles fit
// the budget, no more. The governor reproduces that behavior
// adaptively: it prices every dirty rake in the §5.3 work units the
// CostModel counts (compute.UnitsPerPoint x seeds x steps), converts
// units to predicted time with a live EWMA of measured ns/unit, and —
// when the prediction exceeds the configured budget — sheds load
// deterministically before the frame runs, instead of blowing the
// deadline and discovering it afterwards.
//
// Shedding is ordered by the paper's conflict-resolution priority:
// free rakes degrade first, FCFS-grabbed rakes (someone is actively
// holding them) degrade last. Within a rake, steps shed before seeds —
// shorter paths first, fewer paths only under heavy pressure — and no
// rake is ever starved below one seed and a small step floor.
// Streaklines carry cross-frame particle state, so they are priced but
// never clamped (clamping would corrupt the §2.1 smoke history).
//
// All time flows through the injected netsim.Clock: the EWMA is
// calibrated from clock-measured integrate stages, so a ManualClock
// yields zero-duration measurements, a frozen EWMA, and fully
// replayable shed plans.
package server

import (
	"time"

	"repro/internal/compute"
)

// minShedSteps is the per-path step floor: shedding never truncates a
// path below this many steps (or the configured MaxSteps, if smaller),
// so even a fully shed frame still shows flow direction at every rake.
const minShedSteps = 8

// ewmaAlpha is the calibration smoothing factor: each measured frame
// moves the ns/unit estimate 20% of the way to the new sample.
const ewmaAlpha = 0.2

// shedRequest prices one dirty rake for the planner.
type shedRequest struct {
	// Units is the full-fidelity predicted work in §5.3 units.
	Units int64
	// Seeds and Steps are the full-fidelity clamp inputs.
	Seeds, Steps int
	// Held marks FCFS-grabbed rakes, which degrade last.
	Held bool
	// Fixed marks stateful rakes (streaklines) that are priced but
	// never clamped.
	Fixed bool
}

// shedLevel is the planner's per-rake decision: the seed and step
// counts the rake may compute this frame.
type shedLevel struct {
	Seeds, Steps int
}

// governor holds the frame-budget state. It is owned by the Server and
// mutated only under the server mutex; a zero budget disables it.
type governor struct {
	budget time.Duration

	// unitNanos is the EWMA of measured integrate nanoseconds per work
	// unit; 0 means uncalibrated, and an uncalibrated governor never
	// sheds (the first frames establish the rate).
	unitNanos float64

	// pressure is an EWMA of measured timestep-load nanoseconds — the
	// in-situ backpressure signal. When the live solver contends with
	// integrate/encode, frame loads stall on on-demand production;
	// folding that stall into the effective budget makes the planner
	// shed integration work to leave room for solver compute. Zero
	// samples (cache hits, ManualClock) decay the pressure instead of
	// being ignored, so a recovered producer releases the squeeze.
	pressure float64

	// Pre-built engines for shed batches, chosen per batch shape so
	// interface boxing never happens on the frame path.
	parallel compute.Engine
	vector   compute.Engine
	hybrid   compute.Engine
}

// newGovernor builds a governor for the given budget (0 = disabled)
// and worker count.
func newGovernor(budget time.Duration, workers int) *governor {
	return &governor{
		budget:   budget,
		parallel: compute.Parallel{NumWorkers: workers},
		vector:   compute.Vector{},
		hybrid:   compute.Hybrid{NumWorkers: workers},
	}
}

// enabled reports whether a budget is configured.
func (g *governor) enabled() bool { return g.budget > 0 }

// calibrated reports whether at least one frame has established a
// ns/unit rate.
func (g *governor) calibrated() bool { return g.unitNanos > 0 }

// predict converts work units to modeled time at the current EWMA
// rate.
func (g *governor) predict(units int64) time.Duration {
	return time.Duration(g.unitNanos * float64(units))
}

// observe folds one measured integrate stage into the EWMA. Zero or
// negative measurements are ignored — under a ManualClock every stage
// measures zero, which must freeze the estimate (keeping shed plans
// replayable), not poison it.
func (g *governor) observe(measured time.Duration, units int64) {
	if measured <= 0 || units <= 0 {
		return
	}
	sample := float64(measured.Nanoseconds()) / float64(units)
	if g.unitNanos == 0 {
		g.unitNanos = sample
		return
	}
	g.unitNanos = (1-ewmaAlpha)*g.unitNanos + ewmaAlpha*sample
}

// notePressure folds one measured timestep-load wait into the
// backpressure EWMA. Unlike observe, zero samples are data: they mean
// the load was served from resident steps, so the pressure decays.
// Under a ManualClock every sample is zero and the pressure stays at
// zero — shed plans remain replayable.
func (g *governor) notePressure(loadWait time.Duration) {
	if loadWait <= 0 {
		g.pressure *= 1 - ewmaAlpha
		if g.pressure < 1 { // below a nanosecond: call it gone
			g.pressure = 0
		}
		return
	}
	sample := float64(loadWait.Nanoseconds())
	if g.pressure == 0 {
		g.pressure = sample
		return
	}
	g.pressure = (1-ewmaAlpha)*g.pressure + ewmaAlpha*sample
}

// effectiveBudget is the integration budget after backpressure: the
// configured budget minus the expected solver/load stall, floored at a
// quarter of the budget so visualization is squeezed, never starved.
func (g *governor) effectiveBudget() time.Duration {
	if g.budget <= 0 || g.pressure <= 0 {
		return g.budget
	}
	eff := g.budget - time.Duration(g.pressure)
	if floor := g.budget / 4; eff < floor {
		eff = floor
	}
	return eff
}

// plan decides this frame's shed levels. It writes one shedLevel per
// request into dst (which must be len(reqs)) and returns the predicted
// full-fidelity cost and whether any shedding is active. reserve is the
// part of the effective budget held back for work the rake planner does
// not control — the shared tools' slice of the frame. The plan is a
// pure function of (reqs, effective budget, reserve, unitNanos):
// deterministic across runs, monotone in the budget and the reserve (a
// tighter budget or a larger reserve never allows more seeds or steps),
// and floor-bounded (never below one seed, never below minShedSteps
// steps).
func (g *governor) plan(reqs []shedRequest, dst []shedLevel, reserve time.Duration) (predicted time.Duration, shed bool) {
	var total int64
	for _, r := range reqs {
		total += r.Units
	}
	predicted = g.predict(total)
	full := func() {
		for i, r := range reqs {
			dst[i] = shedLevel{Seeds: r.Seeds, Steps: r.Steps}
		}
	}
	budget := g.effectiveBudget() - reserve
	if budget < 0 {
		budget = 0
	}
	if !g.enabled() || !g.calibrated() || predicted <= budget {
		full()
		return predicted, false
	}

	// Units the budget affords at the current rate, minus the work we
	// cannot shed (streakline state advances and per-rake floors).
	allowed := float64(budget.Nanoseconds()) / g.unitNanos
	var fixed float64
	var heldFull, freeFull float64
	for _, r := range reqs {
		if r.Fixed {
			fixed += float64(r.Units)
			continue
		}
		if r.Held {
			heldFull += float64(r.Units)
		} else {
			freeFull += float64(r.Units)
		}
	}
	remaining := allowed - fixed
	if remaining < 0 {
		remaining = 0
	}

	// Free rakes absorb the deficit first; held rakes only degrade
	// once the free class is already at its floor.
	fracFor := func(classFull, classAllowed float64) float64 {
		if classFull <= 0 {
			return 1
		}
		f := classAllowed / classFull
		if f > 1 {
			f = 1
		}
		if f < 0 {
			f = 0
		}
		return f
	}
	var fHeld, fFree float64
	if remaining >= heldFull {
		fHeld = 1
		fFree = fracFor(freeFull, remaining-heldFull)
	} else {
		fFree = 0
		fHeld = fracFor(heldFull, remaining)
	}

	for i, r := range reqs {
		if r.Fixed {
			dst[i] = shedLevel{Seeds: r.Seeds, Steps: r.Steps}
			continue
		}
		f := fFree
		if r.Held {
			f = fHeld
		}
		dst[i] = shedOne(r.Seeds, r.Steps, f)
		if dst[i] != (shedLevel{Seeds: r.Seeds, Steps: r.Steps}) {
			shed = true
		}
	}
	return predicted, shed
}

// shedOne clamps one rake to fraction f of its full work: steps shed
// first down to the step floor, then seeds down to one.
func shedOne(seeds, steps int, f float64) shedLevel {
	floor := minShedSteps
	if steps < floor {
		floor = steps
	}
	target := f * float64(steps)
	if int(target) >= floor {
		s := int(target)
		if s > steps {
			s = steps
		}
		return shedLevel{Seeds: seeds, Steps: s}
	}
	// Steps are at the floor; shed seeds to hold the same unit target.
	lv := shedLevel{Steps: floor}
	lv.Seeds = int(float64(seeds) * target / float64(floor))
	if lv.Seeds < 1 {
		lv.Seeds = 1
	}
	if lv.Seeds > seeds {
		lv.Seeds = seeds
	}
	return lv
}

// engineFor picks the integration engine for a shed batch by shape,
// mirroring §5.3's scalar-vs-vector trade: small batches stay on the
// per-seed parallel engine, mid-size batches fill the SoA vector unit,
// and large batches run the hybrid (groups x vector) decomposition.
func (g *governor) engineFor(seeds int) compute.Engine {
	switch {
	case seeds < 32:
		return g.parallel
	case seeds < 128:
		return g.vector
	default:
		return g.hybrid
	}
}

// degradedByte encodes the frame's fidelity for the wire: 0 at full
// fidelity, else 1..255 scaling with the fraction of resident work
// shed. actual and full are unit sums over every rake served this
// frame (memoized shed geometry counts — a frame serving clamped
// geometry is degraded even if it recomputed nothing).
func degradedByte(actual, full int64) uint8 {
	if full <= 0 || actual >= full {
		return 0
	}
	frac := 1 - float64(actual)/float64(full)
	b := 1 + int(frac*254)
	if b > 255 {
		b = 255
	}
	return uint8(b)
}
