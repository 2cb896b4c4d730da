// Package store manages access to unsteady flowfield timesteps,
// reproducing §5.1's data-management strategies: datasets fully
// resident in (the remote host's large) memory, datasets streamed from
// disk with a bandwidth budget, and over those one resident set
// (Cache) holding the window of future timesteps that particle paths
// require, read ahead along the play so disk I/O overlaps computation
// (figure 8's double buffer is its two-step case).
//
// §5.1's rule — keep "the current timestep plus the maximum particle
// path length" — has one owner: a Source. Memory, Cache and the live
// Ring each keep it their own way behind Follow, so their consumer
// tells the source where the play stands and never which kind it has.
//
//vw:deterministic
package store

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/grid"
)

// Store supplies the grid and timesteps of one dataset. LoadStep may
// block on I/O; implementations must be safe for concurrent use.
type Store interface {
	// Grid returns the dataset's grid.
	Grid() *grid.Grid
	// NumSteps returns the number of timesteps.
	NumSteps() int
	// DT returns the flow-time interval between timesteps.
	DT() float32
	// LoadStep returns timestep t. Implementations may return a shared
	// pointer; callers must not modify the field.
	LoadStep(t int) (*field.Field, error)
	// Close releases resources.
	Close() error
}

// Source is a Store that keeps resident what a round reads. Each round
// its consumer calls Follow with where the play stands, then loads the
// step Follow returned and, for particle paths, the levels after it.
// Until the next Follow no level from the play's first one on is
// recycled: a level LoadStep can reach stays reachable, and a field it
// returned is never rewritten.
type Source interface {
	Store
	// Follow moves the play to p and returns the step the round
	// serves: p.Step, unless the source cannot serve it (a live ring
	// clamps into its window). It may start background reads; it waits
	// for none.
	Follow(p Play) (served int)
}

// Play is where the playback stands, as a Source's consumer tells it
// each round.
type Play struct {
	// Step is the timestep the round serves: what streamlines,
	// streaklines and the shared tools compute from.
	Step int
	// First is the first time level the round's particle paths read,
	// int(time): one below Step when the time was rounded up. Paths
	// integrate forward in time, so they read nothing below it.
	First int
	// Reverse is set when time runs backward.
	Reverse bool
	// Loop is set when the play wraps at the ends of the dataset.
	Loop bool
	// Reach is how many time levels a round's particle paths have been
	// seen to touch, 0 for a scene without them: the paths' window is
	// [First, First+Reach].
	Reach int
}

// Memory is a Store over a fully resident dataset — the stand-alone
// windtunnel's only mode, and the distributed windtunnel's fast path
// when the dataset fits in the remote host's gigabyte of memory.
type Memory struct {
	u *field.Unsteady
}

// NewMemory wraps an in-memory dataset.
func NewMemory(u *field.Unsteady) *Memory { return &Memory{u: u} }

// Grid implements Store.
func (m *Memory) Grid() *grid.Grid { return m.u.Grid }

// NumSteps implements Store.
func (m *Memory) NumSteps() int { return m.u.NumSteps() }

// DT implements Store.
func (m *Memory) DT() float32 { return m.u.DT }

// LoadStep implements Store.
func (m *Memory) LoadStep(t int) (*field.Field, error) {
	if t < 0 || t >= m.u.NumSteps() {
		return nil, fmt.Errorf("store: timestep %d out of range [0, %d)", t, m.u.NumSteps())
	}
	return m.u.Steps[t], nil
}

// Close implements Store.
func (m *Memory) Close() error { return nil }

// Follow implements Source: every step is resident, always.
func (m *Memory) Follow(p Play) int { return p.Step }

// Unsteady returns the underlying dataset.
//
//vw:testonly
func (m *Memory) Unsteady() *field.Unsteady { return m.u }
