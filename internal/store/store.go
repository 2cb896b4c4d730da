// Package store manages access to unsteady flowfield timesteps,
// reproducing §5.1's data-management strategies: datasets fully
// resident in (the remote host's large) memory, datasets streamed from
// disk with a bandwidth budget, and over those one resident set
// (Cache) holding the window of future timesteps that particle paths
// require, read ahead along the play so disk I/O overlaps computation
// (figure 8's double buffer is its two-step case).
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

// Unsteady returns the underlying dataset.
func (m *Memory) Unsteady() *field.Unsteady { return m.u }
