// The frame-budget governor. The paper's real-time constraint (§5.3,
// Table 3) is that integration throughput bounds how many path points
// fit in a 0.1 s frame: the Convex served however many particles fit
// the budget, no more. The governor reproduces that behavior
// adaptively: it prices every source of the frame — each dirty rake
// (compute.UnitsPerPoint x seeds x steps) and each enabled shared tool
// (cells marched at a stride) — in the §5.3 work units cmd/vwbench's
// cost models price, converts units to predicted time with a live EWMA
// of measured ns/unit, and — when the prediction exceeds the configured
// budget — sheds load deterministically before the frame runs, instead
// of blowing the deadline and discovering it afterwards. The EWMA is
// calibrated in the units the plan grants: each round's measured
// compute stage over the planned units of the rows that ran, so the
// rate prices exactly what plan charges (a path that leaves the domain
// early makes the rate cheaper, not the prediction wrong). One sample
// moves the rate at most to twice its estimate, so a single stalled
// round cannot pin the governor into shedding.
//
// Shedding walks one fidelity ladder (plan): shared tools coarsen first
// (cell stride 1, 2, 4 — coarsened, never dropped), then free rakes
// degrade, and FCFS-grabbed rakes (someone is actively holding them)
// degrade last — the paper's conflict-resolution priority. Within a
// rake, steps shed before seeds — shorter paths first, fewer paths only
// under heavy pressure — and no rake is ever starved below one seed and
// a small step floor. Streaklines carry cross-frame particle state, so
// they are priced but never clamped (clamping would corrupt the §2.1
// smoke history).
//
// All time flows through the injected netsim.Clock: the EWMA is
// calibrated from clock-measured integrate stages, so a ManualClock
// yields zero-duration measurements, a frozen EWMA, and fully
// replayable shed plans.
package server

import "time"

// minShedSteps is the per-path step floor: shedding never truncates a
// path below this many steps (or the configured MaxSteps, if smaller),
// so even a fully shed frame still shows flow direction at every rake.
const minShedSteps = 8

// ewmaAlpha is the calibration smoothing factor: each measured frame
// moves the ns/unit estimate 20% of the way to the new sample.
const ewmaAlpha = 0.2

// maxSampleRatio caps one calibration sample at this multiple of the
// current estimate: a stall (a page fault, a descheduled worker) is one
// round's news, not a new rate.
const maxSampleRatio = 2

// shedClass orders the fidelity ladder: under pressure the classes give
// up work in this order, and a class only starts shedding once every
// class below it has nothing left to give.
type shedClass uint8

const (
	// classTool is a shared field tool. Tools coarsen first, along
	// toolStrides, and are never dropped.
	classTool shedClass = iota
	// classFree is a rake nobody holds: steps shed first, then seeds.
	classFree
	// classHeld is an FCFS-grabbed rake, which degrades only once the
	// free class is at its floor.
	classHeld
	// classFixed is a stateful rake (streakline): priced, never clamped.
	classFixed
	numClasses
)

// shedLevel is a rake's rung on the ladder: the seed and step counts it
// may compute this frame.
type shedLevel struct {
	Seeds, Steps int
}

// demand is one row of the ladder — what one geometry source, a rake or
// a shared tool, asks of this frame — and, once plan has run, what it
// was granted. The compute stage reads the decision straight from the
// row.
type demand struct {
	class shedClass
	// upgrade marks a rake whose memo is valid but was computed at shed
	// fidelity. It asks for nothing: plan either re-admits it at full
	// fidelity or sets skip, and the round keeps serving the memo.
	upgrade bool
	// units is the full-fidelity work in §5.3 units. A tool's units fall
	// along rungs, one entry per toolStrides stride (rungs[0] == units);
	// a rake's fall as seeds x steps x perPoint, steps first. A fixed
	// row prices its particle state in units and has no rungs.
	units        int64
	rungs        [len(toolStrides)]int64
	seeds, steps int
	perPoint     int64

	// The decision: the stride a tool marches at, the level a rake
	// integrates at, skip for an upgrade candidate left on its memo, and
	// the units the granted rung costs (0 when skipped).
	stride  int
	level   shedLevel
	skip    bool
	planned int64
}

// governor holds the frame-budget state. It is owned by the Server and
// mutated only under the server mutex; a zero budget disables it.
type governor struct {
	budget time.Duration

	// unitNanos is the EWMA of measured compute nanoseconds per planned
	// work unit; 0 means uncalibrated, and an uncalibrated governor
	// never sheds (the first frames establish the rate).
	unitNanos float64

	// pressure is an EWMA of measured timestep-load nanoseconds — the
	// in-situ backpressure signal. When the live solver contends with
	// integrate/encode, frame loads stall on on-demand production;
	// folding that stall into the effective budget makes the planner
	// shed integration work to leave room for solver compute. Zero
	// samples (cache hits, ManualClock) decay the pressure instead of
	// being ignored, so a recovered producer releases the squeeze.
	pressure float64
}

// predict converts work units to modeled time at the current EWMA
// rate.
func (g *governor) predict(units int64) time.Duration {
	return time.Duration(g.unitNanos * float64(units))
}

// observe folds one measured compute stage into the EWMA: measured over
// the planned units of the rows that ran. The first sample seeds the
// estimate; later ones are capped at maxSampleRatio times it. Zero or
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
	sample = min(sample, maxSampleRatio*g.unitNanos)
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
	return max(g.budget-time.Duration(g.pressure), g.budget/4)
}

// plan walks the fidelity ladder once over every source of the frame,
// writes each row's decision back into it, and returns the predicted
// full-fidelity cost of the rake work it admitted to consider (dirty
// rakes plus re-admitted upgrades; tools are charged to the budget but
// not to this number) and whether any rake was clamped.
//
// Classes shed in order — tools coarsen, then free rakes, then held
// rakes, fixed rows never — and each class is allowed what the
// effective budget leaves after the planned units of the classes below
// it and the full units of the classes above it. The plan is a pure
// function of (rows, effective budget, unitNanos): deterministic across
// runs, monotone in the budget (a tighter budget never allows a finer
// stride, more seeds, or more steps), and floor-bounded (never past the
// last stride, never below one seed or minShedSteps steps). A disabled
// or uncalibrated governor grants every row full fidelity.
func (g *governor) plan(rows []demand) (predicted time.Duration, shed bool) {
	// Full-fidelity demand: the tools' units at each stride, the dirty
	// rakes' by class. Upgrade candidates ask for nothing.
	var toolAt [len(toolStrides)]int64
	var full [numClasses]int64
	dirtyRakes := 0
	for i := range rows {
		d := &rows[i]
		d.stride, d.level, d.skip, d.planned = toolStrides[0], shedLevel{d.seeds, d.steps}, false, d.units
		if d.upgrade {
			continue
		}
		if d.class == classTool {
			for k, u := range d.rungs {
				toolAt[k] += u
			}
			continue
		}
		full[d.class] += d.units
		dirtyRakes++
	}
	rakeUnits := full[classFree] + full[classHeld] + full[classFixed]
	predicted = g.predict(rakeUnits)
	// A zero budget disables the governor, and until a frame has
	// established a ns/unit rate it never sheds.
	governed := g.budget > 0 && g.unitNanos > 0

	// Tools: the first stride whose cost fits beside the rakes' full
	// demand, else the floor stride — coarsened, never dropped. What
	// that stride costs comes out of the rakes' budget.
	left := g.effectiveBudget()
	if governed && toolAt[0] > 0 {
		k := len(toolStrides) - 1
		for c := range toolStrides {
			if g.predict(rakeUnits+toolAt[c]) <= left {
				k = c
				break
			}
		}
		for i := range rows {
			if d := &rows[i]; d.class == classTool {
				d.stride, d.planned = toolStrides[k], d.rungs[k]
			}
		}
		left -= g.predict(toolAt[k])
	}

	// Rakes: the units the rest of the budget affords at the current
	// rate, minus the work that cannot shed. Held rakes claim it first,
	// so free rakes absorb the deficit and the held class only degrades
	// once the free class has nothing left.
	if budget := max(left, 0); governed && predicted > budget {
		allowed := float64(budget.Nanoseconds()) / g.unitNanos
		remaining := max(allowed-float64(full[classFixed]), 0)
		heldFull, freeFull := float64(full[classHeld]), float64(full[classFree])
		frac := [numClasses]float64{
			classHeld: fracOf(heldFull, remaining),
			classFree: fracOf(freeFull, remaining-heldFull),
		}
		for i := range rows {
			d := &rows[i]
			if d.upgrade || d.class == classTool || d.class == classFixed {
				continue
			}
			if lv := shedOne(d.seeds, d.steps, frac[d.class]); lv != d.level {
				d.level, d.planned = lv, int64(lv.Seeds)*int64(lv.Steps)*d.perPoint
				shed = true
			}
		}
	}

	// Upgrade candidates are re-admitted to full fidelity in row order
	// while the predicted frame stays inside what the tools left, and
	// never on a round that is itself shedding. An idle round (no dirty
	// rake) that admitted none restores the first candidate anyway — a
	// single rake's full cost can exceed the budget, and a paused,
	// degraded scene must not stay degraded forever.
	first, admitted := -1, false
	for i := range rows {
		d := &rows[i]
		if !d.upgrade {
			continue
		}
		if first < 0 {
			first = i
		}
		cost := g.predict(d.units)
		if shed || (governed && predicted+cost > left) {
			d.skip, d.planned = true, 0
			continue
		}
		predicted += cost
		admitted = true
	}
	if dirtyRakes == 0 && !admitted && first >= 0 {
		d := &rows[first]
		d.skip, d.planned = false, d.units
		predicted += g.predict(d.units)
	}
	return predicted, shed
}

// fracOf is the share of a class's full units the budget allows it,
// clamped to [0, 1]; an empty class is unconstrained.
func fracOf(classFull, classAllowed float64) float64 {
	if classFull <= 0 {
		return 1
	}
	return min(max(classAllowed/classFull, 0), 1)
}

// shedOne clamps one rake to fraction f of its full work: steps shed
// first down to the step floor, then seeds down to one.
func shedOne(seeds, steps int, f float64) shedLevel {
	floor := min(minShedSteps, steps)
	target := f * float64(steps)
	if int(target) >= floor {
		return shedLevel{Seeds: seeds, Steps: min(int(target), steps)}
	}
	// Steps are at the floor; shed seeds to hold the same unit target.
	n := int(float64(seeds) * target / float64(floor))
	return shedLevel{Seeds: min(max(n, 1), seeds), Steps: floor}
}

// degradedByte encodes the frame's fidelity for the wire: 0 at full
// fidelity, else 1..255 scaling with the fraction of resident work
// shed. actual and full are sums of planned and full §5.3 units over
// every source served this frame, rakes and tools alike (memoized shed
// geometry counts — a frame serving clamped geometry is degraded even
// if it recomputed nothing).
func degradedByte(actual, full int64) uint8 {
	if full <= 0 || actual >= full {
		return 0
	}
	frac := 1 - float64(actual)/float64(full)
	return uint8(min(1+int(frac*254), 255))
}
