package integrate

import (
	"math"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// LevelSource is a Sampler that can hand over the arrays its samples
// read: the grid and, per time level (timestep), one grid-coordinate
// velocity field. Streamline, ParticlePath and Streak.Advance run the
// fused kernel below over any sampler that implements it and fall back
// to Step over SampleVelocity for the ones that cannot (multiblock,
// analytic test fields) — the two paths produce the same bits.
//
// The velocity a LevelSource stands for at (gc, t) is the one
// field.Unsteady.SampleAtTime defines: level 0 alone for t <= 0, the
// last level alone for t >= NumLevels-1, else levels int(t) and
// int(t)+1 blended by Vec3.Lerp at t - int(t). The kernel asks for a
// level only when the bracket changes, never per sample, so Level may
// take a lock or touch a cache.
type LevelSource interface {
	Sampler
	// NumLevels is the number of time levels, at least 1. One level is
	// a steady field: time is ignored.
	NumLevels() int
	// Level returns time level i, 0 <= i < NumLevels, or nil when it
	// cannot be had (a failed load). The kernel ends a path at the first
	// sample whose bracket is missing a level.
	Level(i int) *field.Field
}

// NumLevels implements LevelSource.
func (s SteadySampler) NumLevels() int { return 1 }

// Level implements LevelSource.
func (s SteadySampler) Level(int) *field.Field { return s.F }

// NumLevels implements LevelSource.
func (s UnsteadySampler) NumLevels() int { return len(s.U.Steps) }

// Level implements LevelSource.
func (s UnsteadySampler) Level(i int) *field.Field { return s.U.Steps[i] }

// fusedFor returns the kernel for s when s exposes its arrays and m is
// a method the kernel implements; unknown methods stay on Step, which
// panics on them.
func fusedFor(s Sampler, m Method) (kernel, bool) {
	src, ok := s.(LevelSource)
	if !ok || m > RK4 {
		return kernel{}, false
	}
	k := kernel{g: src.Grid(), src: src, last: src.NumLevels() - 1, key: noBracket}
	if k.last == 0 {
		k.a = src.Level(0)
	}
	return k, true
}

// kernel is the fused integrator's per-path state: the grid, the
// source, and the time bracket currently resolved into field pointers.
// It lives on the caller's stack for one path (or one streak advance);
// nothing in it is shared between goroutines.
type kernel struct {
	g    *grid.Grid
	src  LevelSource
	last int // NumLevels-1; 0 = steady

	// key names the resolved bracket: i >= 0 is the pair (i, i+1), ^i is
	// level i alone (time clamped to an end). a is nil when the bracket
	// failed to load; b is nil for a lone level.
	key  int
	a, b *field.Field
}

// noBracket is a key no time maps to: ^i for a level index no dataset
// reaches.
const noBracket = math.MinInt

// bracket makes k.a / k.b the levels t falls between and returns the
// blend fraction; ok is false when a level is missing.
//
//vw:hotpath
func (k *kernel) bracket(t float32) (frac float32, ok bool) {
	if k.last == 0 {
		return 0, k.a != nil
	}
	var key int
	switch {
	case t <= 0:
		key = ^0
	case t >= float32(k.last):
		key = ^k.last
	default:
		key = int(t)
		frac = t - float32(key)
	}
	if key != k.key {
		k.key = key
		k.a, k.b = nil, nil
		if key < 0 {
			k.a = k.src.Level(^key)
		} else if k.a = k.src.Level(key); k.a != nil {
			// One missing level ends the path; the source is asked for
			// (and counts) the first one only.
			k.b = k.src.Level(key + 1)
		}
	}
	return frac, k.a != nil && (key < 0 || k.b != nil)
}

// sample is the source's velocity at (gc, t): one locate, then every
// component of every level in the bracket from that one cell.
//
//vw:hotpath
func (k *kernel) sample(gc vmath.Vec3, t float32) (vmath.Vec3, bool) {
	frac, ok := k.bracket(t)
	if !ok {
		return vmath.Vec3{}, false
	}
	c := k.g.Locate(gc)
	v := k.a.SampleCell(k.g, c)
	if k.b != nil {
		v = v.Lerp(k.b.SampleCell(k.g, c), frac)
	}
	return v, true
}

// step is Step with the first stage already sampled: k1 is the
// velocity at (gc, t). Every expression is Step's, in Step's order.
//
//vw:hotpath
func (k *kernel) step(m Method, gc, k1 vmath.Vec3, t, h float32) (vmath.Vec3, bool) {
	switch m {
	case Euler:
		return gc.Add(k1.Scale(h)), true
	case RK2:
		mid := gc.Add(k1.Scale(h / 2))
		k2, ok := k.sample(mid, t+h/2)
		return gc.Add(k2.Scale(h)), ok
	default: // RK4: fusedFor admits nothing above it
		k2, ok2 := k.sample(gc.Add(k1.Scale(h/2)), t+h/2)
		k3, ok3 := k.sample(gc.Add(k2.Scale(h/2)), t+h/2)
		k4, ok4 := k.sample(gc.Add(k3.Scale(h)), t+h)
		sum := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4)
		return gc.Add(sum.Scale(h / 6)), ok2 && ok3 && ok4
	}
}

// streamline is streamlineOver on the fused kernel: the stagnation test
// reads k1 instead of sampling the same position twice.
//
//vw:hotpath
func (k *kernel) streamline(dst []vmath.Vec3, seed vmath.Vec3, t float32, o Options) []vmath.Vec3 {
	if !k.g.InBounds(seed) {
		return dst
	}
	dst = append(dst, seed)
	minSpeed := o.EffectiveMinSpeed()
	gc := seed
	for n := 0; n < o.MaxSteps; n++ {
		k1, ok := k.sample(gc, t)
		if !ok || k1.Len() < minSpeed {
			break
		}
		next, ok := k.step(o.Method, gc, k1, t, o.StepSize)
		if !ok || !k.g.InBounds(next) || !next.IsFinite() {
			break
		}
		dst = append(dst, next)
		gc = next
	}
	return dst
}

// particlePath is particlePathOver on the fused kernel.
//
//vw:hotpath
func (k *kernel) particlePath(dst []vmath.Vec3, seed vmath.Vec3, t0, maxTime float32, o Options) []vmath.Vec3 {
	if !k.g.InBounds(seed) {
		return dst
	}
	dst = append(dst, seed)
	gc, t := seed, t0
	for n := 0; n < o.MaxSteps; n++ {
		tNext := t + o.StepSize
		if o.StepSize > 0 && tNext > maxTime {
			break
		}
		if o.StepSize < 0 && tNext < 0 {
			break
		}
		k1, ok := k.sample(gc, t)
		if !ok {
			break
		}
		next, ok := k.step(o.Method, gc, k1, t, o.StepSize)
		if !ok || !k.g.InBounds(next) || !next.IsFinite() {
			break
		}
		dst = append(dst, next)
		gc, t = next, tNext
	}
	return dst
}

// advance moves every particle one step in place and returns the
// survivors, compacted to the front of ps. A particle whose bracket is
// missing a level is dropped like one that left the domain.
//
//vw:hotpath
func (k *kernel) advance(ps []StreakParticle, t, h float32, m Method) []StreakParticle {
	live := 0
	for _, p := range ps {
		k1, ok := k.sample(p.Pos, t)
		if !ok {
			continue
		}
		next, ok := k.step(m, p.Pos, k1, t, h)
		if !ok || !k.g.InBounds(next) || !next.IsFinite() {
			continue
		}
		p.Pos = next
		p.Age++
		ps[live] = p
		live++
	}
	return ps[:live]
}
