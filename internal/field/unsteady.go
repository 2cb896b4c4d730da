package field

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// Unsteady is an in-memory unsteady flowfield: a grid plus an ordered
// sequence of velocity timesteps separated by a uniform time interval
// DT (in flow time units). The tapered cylinder dataset in the paper
// has 800 timesteps of ~1.5 MB each.
type Unsteady struct {
	Grid  *grid.Grid
	Steps []*Field
	DT    float32
}

// NewUnsteady validates that every timestep matches the grid and
// returns the assembled dataset.
func NewUnsteady(g *grid.Grid, steps []*Field, dt float32) (*Unsteady, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("field: unsteady dataset needs at least one timestep")
	}
	if dt <= 0 {
		return nil, fmt.Errorf("field: non-positive timestep interval %g", dt)
	}
	coords := steps[0].Coords
	for i, s := range steps {
		if !s.MatchesGrid(g) {
			return nil, fmt.Errorf("field: timestep %d dims %dx%dx%d do not match grid %dx%dx%d",
				i, s.NI, s.NJ, s.NK, g.NI, g.NJ, g.NK)
		}
		if s.Coords != coords {
			return nil, fmt.Errorf("field: timestep %d coord system %v differs from %v", i, s.Coords, coords)
		}
	}
	return &Unsteady{Grid: g, Steps: steps, DT: dt}, nil
}

// NumSteps returns the number of timesteps.
func (u *Unsteady) NumSteps() int { return len(u.Steps) }

// Step returns timestep t clamped into range.
func (u *Unsteady) Step(t int) *Field {
	if t < 0 {
		t = 0
	}
	if t >= len(u.Steps) {
		t = len(u.Steps) - 1
	}
	return u.Steps[t]
}

// SizeBytes returns the total velocity payload across all timesteps.
func (u *Unsteady) SizeBytes() int64 {
	var total int64
	for _, s := range u.Steps {
		total += s.SizeBytes()
	}
	return total
}

// SampleAtTime samples velocity at grid coordinate gc at continuous
// time index t (in timesteps), linearly interpolating between the two
// bracketing timesteps. t outside the dataset clamps to the ends.
func (u *Unsteady) SampleAtTime(gc vmath.Vec3, t float32) vmath.Vec3 {
	if t <= 0 {
		return u.Steps[0].Sample(u.Grid, gc)
	}
	last := float32(len(u.Steps) - 1)
	if t >= last {
		return u.Steps[len(u.Steps)-1].Sample(u.Grid, gc)
	}
	t0 := int(t)
	frac := t - float32(t0)
	a := u.Steps[t0].Sample(u.Grid, gc)
	b := u.Steps[t0+1].Sample(u.Grid, gc)
	return a.Lerp(b, frac)
}

// ToGridCoords converts every timestep to grid coordinates in place,
// the steps spread over ForEachStep's workers. The dataset is never
// held twice. On error some steps may already be converted.
func (u *Unsteady) ToGridCoords() error {
	return ForEachStep(len(u.Steps), func(t int) error {
		if err := ToGridCoords(u.Steps[t], u.Grid); err != nil {
			return fmt.Errorf("field: timestep %d: %w", t, err)
		}
		return nil
	})
}

// ForEachStep calls fn(t) once for every t in [0, n). Workers claim
// whole steps from an atomic counter, runtime.GOMAXPROCS(0) of them with
// the caller being one, so fn must be safe for concurrent use on
// distinct steps. Every step runs even if one fails; the error returned
// is the lowest-numbered step's, so it does not depend on scheduling.
func ForEachStep(n int, fn func(t int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for t := int(next.Add(1)) - 1; t < n; t = int(next.Add(1)) - 1 {
			errs[t] = fn(t)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
