package integrate

import (
	"repro/internal/vmath"
)

// Streak is a streakline tracer: "the locus of infinitesimal fluid
// elements that have previously passed through a given fixed point in
// space". Each frame, every live particle is moved one step with the
// current timestep's data and fresh particles are injected at the seed
// points — smoke injection.
//
// Streak is stateful and not safe for concurrent use; the server owns
// one per streakline rake and advances it once per frame.
type Streak struct {
	// Particles holds live particle positions in grid coordinates,
	// oldest first within each seed's sub-slice ordering.
	Particles []StreakParticle
	// MaxParticles bounds memory; oldest particles are dropped first.
	MaxParticles int
	// lines is PolylineBySeed's result, its per-seed slices reused by
	// the next call.
	lines [][]vmath.Vec3
}

// StreakParticle is one smoke particle.
type StreakParticle struct {
	Pos  vmath.Vec3 // grid coordinates
	Seed int32      // index of the seed that injected it (for "smoke" polylines)
	Age  int32      // frames since injection
}

// NewStreak returns an empty tracer bounded to maxParticles.
func NewStreak(maxParticles int) *Streak {
	if maxParticles < 1 {
		maxParticles = 1
	}
	return &Streak{MaxParticles: maxParticles}
}

// Advance moves all particles one step of size h at time t using the
// sampler, drops those that exit the domain, then injects one new
// particle at each seed (grid coordinates). This is the order the
// paper describes: "All of the particles are 'moved' by integrating
// each one once using the data in the current time step", including
// "those recently added at the seed points".
func (s *Streak) Advance(sampler Sampler, seeds []vmath.Vec3, t, h float32, m Method) {
	g := sampler.Grid()
	// Inject first so new particles also take this frame's step.
	for i, seed := range seeds {
		if g.InBounds(seed) {
			s.Particles = append(s.Particles, StreakParticle{Pos: seed, Seed: int32(i)})
		}
	}
	k := newKernel(sampler, m)
	s.Particles = k.advance(s.Particles, t, h, m)
	if len(s.Particles) > s.MaxParticles {
		// Drop the oldest particles (largest Age). Particles are
		// appended in injection order, so the oldest sit at the front.
		s.Particles = s.Particles[len(s.Particles)-s.MaxParticles:]
	}
}

// PolylineBySeed groups particle positions by originating seed,
// ordered oldest to newest, for rendering as connected "smoke"
// filaments rather than individual points. The lines are valid until
// the next call, which reuses their storage: a caller that keeps them
// copies them first.
func (s *Streak) PolylineBySeed(numSeeds int) [][]vmath.Vec3 {
	for len(s.lines) < numSeeds {
		s.lines = append(s.lines, nil)
	}
	lines := s.lines[:numSeeds]
	for i := range lines {
		lines[i] = lines[i][:0]
	}
	// Storage order is injection order, oldest first.
	for _, p := range s.Particles {
		if int(p.Seed) < 0 || int(p.Seed) >= numSeeds {
			continue
		}
		lines[p.Seed] = append(lines[p.Seed], p.Pos)
	}
	return lines
}
