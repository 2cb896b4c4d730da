package solver

import (
	"sync"
)

// Workers controls slab parallelism for the solver's sweeps. The
// default (0) runs serially; set it to GOMAXPROCS for multi-core
// dataset generation. Every sweep writes each cell exactly once from
// its own slab, so parallel results are bit-identical to serial ones.

// SetWorkers configures the worker count (clamped to [1, NZ]).
func (s *Solver) SetWorkers(n int) {
	if n <= 0 {
		n = 1
	}
	if n > s.NZ {
		n = s.NZ
	}
	s.workers = n
}

// forEachSlab runs fn over [0, NZ) split into contiguous k-slabs, in
// parallel when workers > 1.
func (s *Solver) forEachSlab(fn func(k0, k1 int)) {
	w := s.workers
	if w <= 1 {
		fn(0, s.NZ)
		return
	}
	var wg sync.WaitGroup
	per := (s.NZ + w - 1) / w
	for k0 := 0; k0 < s.NZ; k0 += per {
		k1 := k0 + per
		if k1 > s.NZ {
			k1 = s.NZ
		}
		wg.Add(1)
		go func(k0, k1 int) {
			defer wg.Done()
			fn(k0, k1)
		}(k0, k1)
	}
	wg.Wait()
}
