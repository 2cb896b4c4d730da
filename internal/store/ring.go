// The live timestep ring: the in-situ mode's data substrate. Where the
// paper's windtunnel replays precomputed timesteps from mass storage,
// the in-situ configuration couples the Navier-Stokes solver directly
// to the visualization loop (§5's own bottleneck analysis points here):
// the solver seals finished timesteps into a bounded ring — a live head
// plus a history window for the tools that reference more than the
// current step — and the server serves frames from the newest sealed
// step.
//
// The ring recycles evicted steps' field buffers into later steps, so
// eviction is a write hazard: a level an in-flight tracer is still
// sampling must never be reclaimed. The ring's one pin is the guard.
// Follow moves it to the first level the round reads, and the tail
// never advances past it, so that level and every later one (all a
// forward-integrating tracer can reach) stay resident until the next
// Follow. Eviction deferred by the pin is counted, not forced. The pin
// is private: a consumer holds levels only through Follow.
//
// Layering rule: a Ring cannot sit under a Cache (NewCache refuses
// one). The cache holds bare *Field pointers across rounds, which the
// ring's buffer recycling would silently overwrite; the ring is already
// memory-resident, so a cache would have nothing to add and everything
// to corrupt.
package store

import (
	"fmt"
	"sync"

	"repro/internal/field"
	"repro/internal/grid"
)

// RingStats counts the ring's producer/consumer traffic.
type RingStats struct {
	// Produced is the number of steps sealed so far (Head()+1).
	Produced int64
	// Recycled counts sealed steps that reused an evicted buffer
	// instead of allocating.
	Recycled int64
	// Deferred counts evictions postponed because the step (or one
	// before it) was pinned by an in-flight computation.
	Deferred int64
	// Clamped counts Follow calls whose step had to move back inside the
	// resident window — the consumer asked for history the ring has
	// already recycled ("ring starvation" pressure).
	Clamped int64
}

// Ring is a Store over a live, bounded window of solver-produced
// timesteps: [tail, Head()] are resident, steps before tail have
// been recycled, steps after Head() do not exist yet (but a producer
// callback can be attached to create them on demand). NumSteps()
// reports the fixed horizon the live session is configured for, so the
// playback machinery sees the same dataset length a replayed recording
// of the run would have.
type Ring struct {
	g       *grid.Grid
	dt      float32
	window  int
	horizon int

	// produce seals steps through the given index; attached by the
	// live producer (datasets.Live). Called WITHOUT the ring lock —
	// it re-enters via Publish.
	produce func(upto int) error

	mu     sync.Mutex
	slots  map[int]*field.Field
	head   int // newest sealed step, -1 before the first Publish
	tail   int // oldest resident step
	pinned int // the pin: the tail never passes it; -1 before the first Follow
	free   []*field.Field
	stats  RingStats
	closed bool
}

// NewRing builds a live ring over grid g with the given history window
// and total horizon (the NumSteps the live session reports).
func NewRing(g *grid.Grid, dt float32, window, horizon int) (*Ring, error) {
	if g == nil {
		return nil, fmt.Errorf("store: ring needs a grid")
	}
	if dt <= 0 {
		return nil, fmt.Errorf("store: ring dt %g <= 0", dt)
	}
	if window < 1 {
		return nil, fmt.Errorf("store: ring window %d < 1", window)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("store: ring horizon %d < 1", horizon)
	}
	if window > horizon {
		window = horizon
	}
	return &Ring{
		g: g, dt: dt, window: window, horizon: horizon,
		slots:  make(map[int]*field.Field),
		head:   -1,
		pinned: -1,
	}, nil
}

// SetProducer attaches the on-demand producer: LoadStep calls for steps
// beyond the head drive it (without the ring lock) until the step is
// sealed. The callback must seal steps strictly in order via Publish.
func (r *Ring) SetProducer(produce func(upto int) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.produce = produce
}

// Grid implements Store.
func (r *Ring) Grid() *grid.Grid { return r.g }

// NumSteps implements Store: the configured horizon, not the sealed
// count, so TimeStatus on the wire matches an equal-length replay.
func (r *Ring) NumSteps() int { return r.horizon }

// DT implements Store.
func (r *Ring) DT() float32 { return r.dt }

// Close implements Store.
func (r *Ring) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.slots = make(map[int]*field.Field)
	r.free = nil
	return nil
}

// Head returns the newest sealed step, or -1 before the first Publish.
func (r *Ring) Head() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Stats returns a snapshot of the ring counters.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Publish seals the next step with a copy of src and returns its index.
// Evicted buffers are recycled; eviction never passes a pinned step.
func (r *Ring) Publish(src *field.Field) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("store: ring closed")
	}
	step := r.head + 1
	if step >= r.horizon {
		return 0, fmt.Errorf("store: ring horizon %d reached", r.horizon)
	}
	if src.NI != r.g.NI || src.NJ != r.g.NJ || src.NK != r.g.NK {
		return 0, fmt.Errorf("store: publish %dx%dx%d onto %dx%dx%d ring",
			src.NI, src.NJ, src.NK, r.g.NI, r.g.NJ, r.g.NK)
	}
	var f *field.Field
	if n := len(r.free); n > 0 {
		f = r.free[n-1]
		r.free = r.free[:n-1]
		r.stats.Recycled++
	} else {
		f = field.NewField(r.g.NI, r.g.NJ, r.g.NK, src.Coords)
	}
	f.Coords = src.Coords
	copy(f.U, src.U)
	copy(f.V, src.V)
	copy(f.W, src.W)
	r.slots[step] = f
	r.head = step
	r.stats.Produced++
	r.evictLocked()
	return step, nil
}

// evictLocked slides the tail up to head-window+1, stopping at the
// pin: it holds its step AND everything after it resident
// (forward-integrating tracers only ever reach later steps).
func (r *Ring) evictLocked() {
	limit := r.head - r.window + 1
	if limit <= r.tail {
		return
	}
	barrier := limit
	if r.pinned >= 0 && r.pinned < barrier {
		barrier = r.pinned
		r.stats.Deferred += int64(limit - barrier)
	}
	for t := r.tail; t < barrier; t++ {
		if f, ok := r.slots[t]; ok {
			r.free = append(r.free, f)
			delete(r.slots, t)
		}
	}
	r.tail = max(r.tail, barrier)
}

// Follow implements Source: it clamps p.Step into what the ring can
// serve and moves the pin to the first level the round reads — p.First,
// or the served step if that is lower. Both happen under one lock, so
// no Publish slips between them.
func (r *Ring) Follow(p Play) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	served := r.clampLocked(p.Step)
	r.pinLocked(min(p.First, served))
	return served
}

// pinLocked moves the pin to step t, or to the tail if t was already
// recycled. Until it moves again no Publish recycles that step or any
// later one; eviction it deferred happens on the first Publish after
// it moves up.
func (r *Ring) pinLocked(t int) {
	r.pinned = max(t, r.tail)
}

// clampLocked bounds a requested step to what the ring can serve: at
// least the tail (older history is recycled), at most the horizon's
// last step and, once a step is sealed and no producer is attached,
// the head. Out-of-window requests are counted as starvation pressure.
func (r *Ring) clampLocked(step int) int {
	clamped := max(step, r.tail)
	if r.produce == nil && r.head >= 0 {
		clamped = min(clamped, r.head)
	}
	clamped = min(clamped, r.horizon-1)
	if clamped != step {
		r.stats.Clamped++
	}
	return clamped
}

// LoadStep implements Store. Steps in [Tail, Head] return immediately;
// steps beyond the head drive the attached producer until sealed
// (in-situ mode's on-demand computation); steps before the tail are
// gone — the caller is expected to Follow first, and the error path
// ends the particle paths that needed them rather than crashing a
// frame.
func (r *Ring) LoadStep(t int) (*field.Field, error) {
	if t < 0 || t >= r.horizon {
		return nil, fmt.Errorf("store: timestep %d out of range [0, %d)", t, r.horizon)
	}
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, fmt.Errorf("store: ring closed")
		}
		if f, ok := r.slots[t]; ok {
			r.mu.Unlock()
			return f, nil
		}
		if t <= r.head {
			head, tail := r.head, r.tail
			r.mu.Unlock()
			return nil, fmt.Errorf("store: live step %d recycled (window [%d, %d])", t, tail, head)
		}
		produce := r.produce
		r.mu.Unlock()
		if produce == nil {
			return nil, fmt.Errorf("store: live step %d not yet produced", t)
		}
		// Drive the solver forward without the ring lock (Publish
		// re-enters it); the producer serializes concurrent callers and
		// the loop re-checks residency after each attempt.
		if err := produce(t); err != nil {
			return nil, fmt.Errorf("store: produce step %d: %w", t, err)
		}
	}
}
