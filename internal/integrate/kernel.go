package integrate

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// The integration kernel: Streamline, ParticlePath and Streak.Advance
// all run it over a Sampler's levels, and it takes every step in Step's
// arithmetic — the kernel's tests hold it to a Step-over-SampleVelocity
// oracle bit for bit.

// Lanes is how many paths the kernel traces in lock step. Every lane
// runs the serial arithmetic; the samples of all four are one
// grid.Interp3x4, the lanes of an SSE2 vector on amd64. The lanes of
// one call share the time, so one bracket serves them all at each
// stage.
const Lanes = 4

// newKernel returns the kernel for s; a method above RK4 panics, as
// Step does.
func newKernel(s Sampler, m Method) kernel {
	if m > RK4 {
		panic(fmt.Sprintf("integrate: unknown method %d", m))
	}
	return kernel{g: s.Grid(), src: s, last: s.NumLevels() - 1, key: noBracket}
}

// kernel is the fused integrator's per-call state: the grid, the
// source, and the time bracket currently resolved into field pointers.
// It lives on the caller's stack for one group of paths (or one streak
// advance); nothing in it is shared between goroutines.
type kernel struct {
	g    *grid.Grid
	src  Sampler
	last int // NumLevels-1; 0 = steady

	// key names the resolved bracket: i >= 0 is the pair (i, i+1), ^i is
	// level i alone (time clamped to an end). a is nil when the bracket
	// failed to load; b is nil for a lone level. missing is the level
	// that came back nil.
	key     int
	a, b    *field.Field
	missing int
}

// noBracket is a key no time maps to: ^i for a level index no dataset
// reaches.
const noBracket = math.MinInt

// bracket makes k.a / k.b the levels t falls between and returns the
// blend fraction; ok is false when a level is missing.
//
//vw:hotpath
func (k *kernel) bracket(t float32) (frac float32, ok bool) {
	var key int
	switch {
	case k.last == 0 || t <= 0:
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
		lo := key
		if key < 0 {
			lo = ^key
		}
		// One missing level ends the path; the source is asked for the
		// first one only.
		if k.a = k.src.Level(lo); k.a == nil {
			k.missing = lo
		} else if key >= 0 {
			if k.b = k.src.Level(key + 1); k.b == nil {
				k.missing = key + 1
			}
		}
	}
	return frac, k.a != nil && (key < 0 || k.b != nil)
}

// sample is the resolved bracket's velocity at four located cells
// into v: one Interp3x4 per level in the bracket, blended by Vec3.Lerp.
//
//vw:hotpath
func (k *kernel) sample(v *[Lanes]vmath.Vec3, c *grid.Cells4, frac float32) {
	var a [3][Lanes]float32
	grid.Interp3x4(k.a.U, k.a.V, k.a.W, c, &a)
	if k.b == nil {
		for i := range Lanes {
			v[i] = vmath.Vec3{X: a[0][i], Y: a[1][i], Z: a[2][i]}
		}
		return
	}
	var b [3][Lanes]float32
	grid.Interp3x4(k.b.U, k.b.V, k.b.W, c, &b)
	for i := range Lanes {
		v[i] = vmath.Vec3{X: a[0][i], Y: a[1][i], Z: a[2][i]}.Lerp(vmath.Vec3{X: b[0][i], Y: b[1][i], Z: b[2][i]}, frac)
	}
}

// group is the lock-step state of up to Lanes paths or particles. Bit i
// of live is set while lane i moves; gc is where each lane stands (grid
// coordinates), k1..k4 its stage velocities, mid the position a stage
// samples at, next where the step takes it, and at the index in the
// call's output its next point goes to.
type group struct {
	live           uint8
	gc, mid, next  [Lanes]vmath.Vec3
	k1, k2, k3, k4 [Lanes]vmath.Vec3
	at             [Lanes]int
}

// stage samples every lane at pos and time t into v: one Locate4 and
// one bracket for all. Dead lanes are sampled too, at clamped
// positions, and never read. It returns false, sampling nothing, when
// the bracket is missing a level.
//
//vw:hotpath
func (k *kernel) stage(v, pos *[Lanes]vmath.Vec3, t float32) bool {
	frac, ok := k.bracket(t)
	if !ok {
		return false
	}
	var c grid.Cells4
	k.g.Locate4(pos, &c)
	k.sample(v, &c, frac)
	return true
}

// probe samples every lane at gc + d*s and time t into v, by
// stage; the position is Step's expression for it.
//
//vw:hotpath
func (k *kernel) probe(l *group, v, d *[Lanes]vmath.Vec3, s, t float32) bool {
	for i := range Lanes {
		l.mid[i] = l.gc[i].Add(d[i].Scale(s))
	}
	return k.stage(v, &l.mid, t)
}

// step takes every live lane one step of method m from gc, its first
// stage already in k1, into next. Every expression is Step's, in Step's
// order; the arithmetic and the sampling run on every lane, and only
// live lanes' results are read. The lanes share t, so a stage's missing
// level stops them all: false.
//
//vw:hotpath
func (k *kernel) step(l *group, m Method, t, h float32) bool {
	switch m {
	case Euler:
		for i := range Lanes {
			l.next[i] = l.gc[i].Add(l.k1[i].Scale(h))
		}
	case RK2:
		if !k.probe(l, &l.k2, &l.k1, h/2, t+h/2) {
			return false
		}
		for i := range Lanes {
			l.next[i] = l.gc[i].Add(l.k2[i].Scale(h))
		}
	default: // RK4: newKernel admits nothing above it
		if !k.probe(l, &l.k2, &l.k1, h/2, t+h/2) ||
			!k.probe(l, &l.k3, &l.k2, h/2, t+h/2) ||
			!k.probe(l, &l.k4, &l.k3, h, t+h) {
			return false
		}
		for i := range Lanes {
			sum := l.k1[i].Add(l.k2[i].Scale(2)).Add(l.k3[i].Scale(2)).Add(l.k4[i])
			l.next[i] = l.gc[i].Add(sum.Scale(h / 6))
		}
	}
	return true
}

// move takes every live lane to next, ending the lanes whose next
// position left the domain or is not finite.
//
//vw:hotpath
func (l *group) move(g *grid.Grid) {
	for i := range Lanes {
		if l.live&(1<<i) == 0 {
			continue
		}
		if next := l.next[i]; g.InBounds(next) && next.IsFinite() {
			l.gc[i] = next
		} else {
			l.live &^= 1 << i
		}
	}
}

// start lays a group over seeds: lane i stands at seeds[i] when that is
// inside the domain, and its points go to out[i*stride:], out being the
// len(seeds)*stride points after dst's length. dst is grown to hold
// them when its spare capacity is short.
//
//vw:hotpath
func (l *group) start(g *grid.Grid, dst, seeds []vmath.Vec3, stride int) (grown, out []vmath.Vec3) {
	n := len(seeds) * stride
	grown = slices.Grow(dst, n) //vw:allow hotpath -- allocates only when the caller left too little spare capacity; engines never do
	out = grown[len(dst) : len(dst)+n]
	for i, seed := range seeds {
		l.at[i] = i * stride
		if g.InBounds(seed) {
			l.gc[i] = seed
			l.live |= 1 << i
		}
	}
	return grown, out
}

// finish packs the group's lines one after another behind dst's length
// and returns dst and each line's length.
//
//vw:hotpath
func (l *group) finish(dst, out []vmath.Vec3, lanes, stride int) ([]vmath.Vec3, [Lanes]int) {
	var n [Lanes]int
	end := 0
	for i := range lanes {
		n[i] = l.at[i] - i*stride
		end += copy(out[end:], out[i*stride:l.at[i]])
	}
	return dst[:len(dst)+end], n
}

// emit writes every live lane's point to its line in physical
// coordinates and, when sample is set, every lane's first stage at time
// t to k1 from the same cells: the lanes are located once for both. It
// reports whether k1 was sampled — false when sample is unset or the
// bracket is missing a level.
//
//vw:hotpath
func (k *kernel) emit(l *group, out []vmath.Vec3, t float32, sample bool) bool {
	var frac float32
	ok := false
	if sample {
		frac, ok = k.bracket(t)
	}
	g := k.g
	var c grid.Cells4
	var p [3][Lanes]float32
	g.Locate4(&l.gc, &c)
	grid.Interp3x4(g.X, g.Y, g.Z, &c, &p)
	for i := range Lanes {
		if l.live&(1<<i) != 0 {
			out[l.at[i]] = vmath.Vec3{X: p[0][i], Y: p[1][i], Z: p[2][i]}
			l.at[i]++
		}
	}
	if ok {
		k.sample(&l.k1, &c, frac)
	}
	return ok
}

// stop accounts for the group's live paths ending at the missing level
// the bracket just met. The source was asked for it once; it is asked
// once more for every further path, so it is asked once per path
// stopped.
//
//vw:hotpath
func (k *kernel) stop(l *group) {
	for range bits.OnesCount8(l.live) - 1 {
		k.src.Level(k.missing)
	}
}

// streamlines traces up to Lanes streamlines in lock step: the
// stagnation test reads k1 instead of sampling the same position twice.
//
//vw:hotpath
func (k *kernel) streamlines(dst, seeds []vmath.Vec3, t float32, o Options) ([]vmath.Vec3, [Lanes]int) {
	var l group
	dst, out := l.start(k.g, dst, seeds, o.MaxSteps+1)
	minSpeed := o.EffectiveMinSpeed()
	for n := 0; l.live != 0; n++ {
		more := n < o.MaxSteps
		if !k.emit(&l, out, t, more) {
			if more {
				k.stop(&l)
			}
			break
		}
		for i := range Lanes {
			if l.k1[i].Len() < minSpeed {
				l.live &^= 1 << i
			}
		}
		if l.live == 0 {
			break
		}
		if !k.step(&l, o.Method, t, o.StepSize) {
			k.stop(&l)
			break
		}
		l.move(k.g)
	}
	return l.finish(dst, out, len(seeds), o.MaxSteps+1)
}

// particlePaths traces up to Lanes particle paths in lock step.
//
//vw:hotpath
func (k *kernel) particlePaths(dst, seeds []vmath.Vec3, t0, maxTime float32, o Options) ([]vmath.Vec3, [Lanes]int) {
	var l group
	dst, out := l.start(k.g, dst, seeds, o.MaxSteps+1)
	h := o.StepSize
	t := t0
	for n := 0; l.live != 0; n++ {
		tNext := t + h
		more := n < o.MaxSteps && !(h > 0 && tNext > maxTime) && !(h < 0 && tNext < 0)
		if !k.emit(&l, out, t, more) {
			if more {
				k.stop(&l)
			}
			break
		}
		if !k.step(&l, o.Method, t, h) {
			k.stop(&l)
			break
		}
		l.move(k.g)
		t = tNext
	}
	return l.finish(dst, out, len(seeds), o.MaxSteps+1)
}

// advance moves every particle one step in place, Lanes at a time, and
// returns the survivors, compacted to the front of ps. A particle whose
// bracket is missing a level is dropped like one that left the domain.
//
//vw:hotpath
func (k *kernel) advance(ps []StreakParticle, t, h float32, m Method) []StreakParticle {
	live := 0
	var l group
	for lo := 0; lo < len(ps); lo += Lanes {
		grp := ps[lo:min(lo+Lanes, len(ps))]
		l.live = 0
		for i, p := range grp {
			l.gc[i] = p.Pos
			l.live |= 1 << i
		}
		if !k.stage(&l.k1, &l.gc, t) || !k.step(&l, m, t, h) {
			continue
		}
		l.move(k.g)
		// ps[live] is at or before grp[i]: a survivor never overwrites a
		// particle not yet read.
		for i, p := range grp {
			if l.live&(1<<i) != 0 {
				p.Pos = l.gc[i]
				p.Age++
				ps[live] = p
				live++
			}
		}
	}
	return ps[:live]
}
