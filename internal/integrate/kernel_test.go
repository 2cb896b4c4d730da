package integrate

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// The kernel's oracle: each path traced alone through Step — one
// SampleVelocity per stage, plus one for the stagnation test — and each
// point converted on its own. The kernel is held to it bit for bit.

// stepSource is what the oracle reads: a Sampler that also samples one
// velocity at a time.
type stepSource interface {
	Sampler
	SampleVelocity(gc vmath.Vec3, t float32) vmath.Vec3
}

// streamlineOver appends one seed's streamline to dst.
func streamlineOver(dst []vmath.Vec3, s stepSource, seed vmath.Vec3, t float32, o Options) []vmath.Vec3 {
	g := s.Grid()
	gc := seed
	if !g.InBounds(gc) {
		return dst
	}
	dst = append(dst, g.PhysAt(gc))
	for n := 0; n < o.MaxSteps; n++ {
		if s.SampleVelocity(gc, t).Len() < o.EffectiveMinSpeed() {
			break
		}
		next := Step(o.Method, s, gc, t, o.StepSize)
		if !g.InBounds(next) || !next.IsFinite() {
			break
		}
		dst = append(dst, g.PhysAt(next))
		gc = next
	}
	return dst
}

// particlePathOver appends one seed's particle path to dst.
func particlePathOver(dst []vmath.Vec3, s stepSource, seed vmath.Vec3, t0, maxTime float32, o Options) []vmath.Vec3 {
	g := s.Grid()
	gc := seed
	if !g.InBounds(gc) {
		return dst
	}
	dst = append(dst, g.PhysAt(gc))
	t := t0
	for n := 0; n < o.MaxSteps; n++ {
		tNext := t + o.StepSize
		if o.StepSize > 0 && tNext > maxTime {
			break
		}
		if o.StepSize < 0 && tNext < 0 {
			break
		}
		next := Step(o.Method, s, gc, t, o.StepSize)
		if !g.InBounds(next) || !next.IsFinite() {
			break
		}
		dst = append(dst, g.PhysAt(next))
		gc = next
		t = tNext
	}
	return dst
}

// advanceOver is Streak.Advance with every particle moved one Step.
func advanceOver(st *Streak, s stepSource, seeds []vmath.Vec3, t, h float32, m Method) {
	g := s.Grid()
	for i, seed := range seeds {
		if g.InBounds(seed) {
			st.Particles = append(st.Particles, StreakParticle{Pos: seed, Seed: int32(i)})
		}
	}
	live := st.Particles[:0]
	for _, p := range st.Particles {
		next := Step(m, s, p.Pos, t, h)
		if !g.InBounds(next) || !next.IsFinite() {
			continue
		}
		p.Pos = next
		p.Age++
		live = append(live, p)
	}
	st.Particles = live[max(0, len(live)-st.MaxParticles):]
}

// lazySource models the server's store-backed sampler: levels are
// fetched on first use into a locked cache, and SampleVelocity is
// written out sample by sample the way the server's generic path is.
type lazySource struct {
	u     *field.Unsteady
	mu    sync.Mutex
	cache map[int]*field.Field
	loads int
}

func (l *lazySource) Grid() *grid.Grid { return l.u.Grid }
func (l *lazySource) NumLevels() int   { return len(l.u.Steps) }

func (l *lazySource) Level(i int) *field.Field {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.cache[i]
	if !ok {
		f = l.u.Steps[i]
		l.cache[i] = f
		l.loads++
	}
	return f
}

func (l *lazySource) SampleVelocity(gc vmath.Vec3, t float32) vmath.Vec3 {
	last := l.NumLevels() - 1
	if t <= 0 {
		return l.Level(0).Sample(l.u.Grid, gc)
	}
	if t >= float32(last) {
		return l.Level(last).Sample(l.u.Grid, gc)
	}
	t0 := int(t)
	a := l.Level(t0).Sample(l.u.Grid, gc)
	b := l.Level(t0+1).Sample(l.u.Grid, gc)
	return a.Lerp(b, t-float32(t0))
}

// hostileUnsteady builds a small unsteady field with everything the
// kernel must agree with Step on: ordinary random cells, a stagnant
// block (exact zeros), and a block of near-MaxFloat32 velocities of
// mixed sign whose midpoints, blends and RK4 sums overflow to Inf and
// from there to NaN.
func hostileUnsteady(t testing.TB, rng *rand.Rand, levels int) *field.Unsteady {
	t.Helper()
	const ni, nj, nk = 7, 6, 5
	g, err := grid.NewCartesian(ni, nj, nk, vmath.AABB{Max: vmath.V3(ni-1, nj-1, nk-1)})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, levels)
	for s := range steps {
		f := field.NewField(ni, nj, nk, field.GridCoords)
		for k := 0; k < nk; k++ {
			for j := 0; j < nj; j++ {
				for i := 0; i < ni; i++ {
					v := vmath.V3(rng.Float32()-0.3, rng.Float32()-0.5, rng.Float32()-0.5)
					switch {
					case i <= 1 && j <= 1:
						v = vmath.Vec3{} // stagnant
					case i >= ni-2 && k >= nk-2:
						v = v.Scale(3e38) // overflows within a step
					}
					f.SetAt(i, j, k, v)
				}
			}
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// hostileSeeds covers the interior, every face and corner (the high
// faces fold into cell n-2 at fraction 1), the stagnant and overflowing
// blocks, and seeds the domain rejects.
func hostileSeeds(rng *rand.Rand, g *grid.Grid) []vmath.Vec3 {
	hi := vmath.V3(float32(g.NI-1), float32(g.NJ-1), float32(g.NK-1))
	nan := float32(math.NaN())
	seeds := []vmath.Vec3{
		{}, hi, {X: hi.X}, {Y: hi.Y}, {Z: hi.Z}, {X: hi.X, Y: hi.Y},
		{X: hi.X - 1, Y: hi.Y - 1, Z: hi.Z - 1},                // origin of the last cell
		{X: 0.5, Y: 0.5, Z: 2},                                 // stagnant block
		{X: hi.X - 0.5, Y: 2, Z: hi.Z - 0.5},                   // overflowing block
		{X: hi.X - 1.5, Y: 2, Z: hi.Z - 1.5},                   // its edge: finite blends of huge and small
		{X: -0.001, Y: 1, Z: 1}, {X: 1, Y: hi.Y + 0.001, Z: 1}, // just outside
		{X: nan, Y: 1, Z: 1}, {X: 1, Y: 1, Z: float32(math.Inf(1))},
	}
	for i := 0; i < 24; i++ {
		seeds = append(seeds, vmath.V3(rng.Float32()*hi.X, rng.Float32()*hi.Y, rng.Float32()*hi.Z))
	}
	return seeds
}

func requireSamePath(t *testing.T, what string, got, want []vmath.Vec3) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: kernel path has %d points, Step path %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].BitsEqual(want[i]) {
			t.Fatalf("%s: point %d = %v, Step path has %v (bits differ)", what, i, got[i], want[i])
		}
	}
}

// TestKernelBitIdenticalToStep is the kernel's contract: over steady,
// unsteady and lazily loaded samplers, every method, both directions and
// a hostile field, Streamline / ParticlePath / Streak.Advance return
// exactly the bits the oracle returns.
func TestKernelBitIdenticalToStep(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const levels = 4
	u := hostileUnsteady(t, rng, levels)
	seeds := hostileSeeds(rng, u.Grid)
	sources := []struct {
		name string
		s    stepSource
	}{
		{"steady", SteadySampler{F: u.Steps[1], G: u.Grid}},
		{"unsteady", UnsteadySampler{U: u}},
		{"store", &lazySource{u: u, cache: map[int]*field.Field{}}},
	}
	// Times at and beyond both clamps, inside a bracket, and on a level.
	times := []float32{-1, 0, 0.3, 1, float32(levels-1) - 0.1, levels - 1, levels + 1}
	var points, stagnant, nonFinite int
	for _, src := range sources {
		for _, m := range []Method{Euler, RK2, RK4} {
			for _, h := range []float32{0.25, -0.25, 0.7, 4} {
				o := Options{Method: m, StepSize: h, MaxSteps: 40}
				for _, t0 := range times {
					what := fmt.Sprintf("%s %v h=%g t=%g", src.name, m, h, t0)
					for i, seed := range seeds {
						got := Streamline(src.s, seed, t0, o)
						want := streamlineOver(nil, src.s, seed, t0, o)
						requireSamePath(t, fmt.Sprintf("streamline %s seed %d", what, i), got, want)
						points += len(got)
						if n := len(got); n > 0 && src.s.SampleVelocity(got[n-1], t0).Len() < o.EffectiveMinSpeed() {
							stagnant++
						}

						got = ParticlePath(src.s, seed, t0, levels-1, o)
						want = particlePathOver(nil, src.s, seed, t0, levels-1, o)
						requireSamePath(t, fmt.Sprintf("particle path %s seed %d", what, i), got, want)
						points += len(got)
					}

					fused, oracle := NewStreak(500), NewStreak(500)
					for frame := 0; frame < 6; frame++ {
						tf := t0 + float32(frame)*h
						fused.Advance(src.s, seeds, tf, h, m)
						advanceOver(oracle, src.s, seeds, tf, h, m)
						if len(fused.Particles) != len(oracle.Particles) {
							t.Fatalf("streak %s frame %d: %d particles, Step path %d",
								what, frame, len(fused.Particles), len(oracle.Particles))
						}
						for i, p := range fused.Particles {
							q := oracle.Particles[i]
							if !p.Pos.BitsEqual(q.Pos) || p.Seed != q.Seed || p.Age != q.Age {
								t.Fatalf("streak %s frame %d particle %d = %+v, Step path %+v", what, frame, i, p, q)
							}
						}
						points += len(fused.Particles)
					}
				}
			}
		}
	}
	// The overflow block must really have been reached: a sample there
	// at h=4 leaves float32 range.
	for _, m := range []Method{Euler, RK2, RK4} {
		next := Step(m, sources[0].s, seeds[8], 0, 4)
		if !next.IsFinite() {
			nonFinite++
		}
	}
	if points < 100000 || stagnant == 0 || nonFinite == 0 {
		t.Errorf("corpus too tame: %d points, %d stagnated paths, %d non-finite steps", points, stagnant, nonFinite)
	}
	t.Logf("%d points compared bit for bit", points)
}

// TestKernelResolvesLevelsPerBracket pins what takes the lock off the
// per-sample path: a particle path asks its source for a level when the
// time bracket changes, not once per sample.
func TestKernelResolvesLevelsPerBracket(t *testing.T) {
	u := hostileUnsteady(t, rand.New(rand.NewSource(1)), 4)
	for _, s := range u.Steps { // a slow uniform drift: the path runs its full length
		for i := range s.U {
			s.U[i], s.V[i], s.W[i] = 0.01, 0, 0
		}
	}
	src := &lazySource{u: u, cache: map[int]*field.Field{}}
	calls := &countingSource{Sampler: src}
	o := Options{Method: RK2, StepSize: 0.125, MaxSteps: 200}
	path := ParticlePath(calls, vmath.V3(1, 2, 2), 0, 3, o)
	if len(path) != 25 { // 24 steps reach t = 3
		t.Fatalf("path has %d points, want 25", len(path))
	}
	// 48 samples cross brackets (0,1), (1,2), (2,3) and start on the
	// t <= 0 clamp: 1 + 3*2 level requests.
	if calls.n != 7 {
		t.Errorf("%d Level calls for a 48-sample path over 3 brackets, want 7", calls.n)
	}
}

type countingSource struct {
	Sampler
	n int
}

func (c *countingSource) Level(i int) *field.Field {
	c.n++
	return c.Sampler.Level(i)
}

// failingSource cannot supply levels at or above failFrom.
type failingSource struct {
	Sampler
	failFrom int
}

func (f failingSource) Level(i int) *field.Field {
	if i >= f.failFrom {
		return nil
	}
	return f.Sampler.Level(i)
}

// TestKernelStopsWhereALevelIsMissing: a path ends at the last point
// whose samples all had their levels — it neither panics nor repeats a
// point up to MaxSteps.
func TestKernelStopsWhereALevelIsMissing(t *testing.T) {
	u := hostileUnsteady(t, rand.New(rand.NewSource(2)), 4)
	for _, s := range u.Steps {
		for i := range s.U {
			s.U[i], s.V[i], s.W[i] = 0.01, 0, 0
		}
	}
	src := failingSource{Sampler: UnsteadySampler{U: u}, failFrom: 2}
	o := Options{Method: RK2, StepSize: 0.25, MaxSteps: 200}
	path := ParticlePath(src, vmath.V3(1, 2, 2), 0, 3, o)
	// The steps from t = 0, 0.25, 0.5 and 0.75 sample at or below
	// t = 0.875, inside bracket (0,1); the step from t = 1 needs level 2.
	if len(path) != 5 {
		t.Fatalf("path has %d points, want 5 (the seed + 4 steps inside bracket (0,1))", len(path))
	}
	for i := 1; i < len(path); i++ {
		if path[i] == path[i-1] {
			t.Fatalf("point %d repeats its predecessor %v", i, path[i])
		}
	}
	if got := Streamline(src, vmath.V3(1, 2, 2), 2.5, o); len(got) != 1 {
		t.Errorf("streamline inside a missing bracket has %d points, want the seed alone", len(got))
	}
	st := NewStreak(10)
	st.Advance(src, []vmath.Vec3{{X: 1, Y: 2, Z: 2}}, 2.5, 0.25, RK2)
	if len(st.Particles) != 0 {
		t.Errorf("streak kept %d particles it could not move", len(st.Particles))
	}
}

// benchScene is heavy's shape: the benchmark's small tapered-cylinder
// dataset and one 256-seed rake across the wake.
func benchScene(b *testing.B) (*field.Unsteady, []vmath.Vec3) {
	b.Helper()
	u, err := datasets.Analytic(datasets.Spec{NI: 32, NJ: 48, NK: 12, NumSteps: 6, DT: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	r := Rake{P0: vmath.V3(-3, 0.6, 1), P1: vmath.V3(-3, 0.6, 14), NumSeeds: 256}
	seeds := r.SeedsGrid(u.Grid)
	if len(seeds) < 200 {
		b.Fatalf("only %d of 256 seeds landed in the grid", len(seeds))
	}
	return u, seeds
}

// benchPaths runs one engine-shaped pass per iteration — the seeds
// traced Lanes at a time, every line carved from one buffer — through
// the kernel and through the oracle, one seed at a time, and reports ns
// per path point.
func benchPaths(b *testing.B, seeds []vmath.Vec3, kernel func(dst, seeds []vmath.Vec3) []vmath.Vec3, oracle func(dst []vmath.Vec3, seed vmath.Vec3) []vmath.Vec3) {
	for _, c := range []struct {
		name  string
		trace func(dst, seeds []vmath.Vec3) []vmath.Vec3
	}{{"fused", kernel}, {"step", func(dst, seeds []vmath.Vec3) []vmath.Vec3 {
		for _, seed := range seeds {
			dst = oracle(dst, seed)
		}
		return dst
	}}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]vmath.Vec3, 0, len(seeds)*(DefaultOptions().MaxSteps+1))
			b.ReportAllocs()
			b.ResetTimer()
			points := 0
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for lo := 0; lo < len(seeds); lo += Lanes {
					buf = c.trace(buf, seeds[lo:min(lo+Lanes, len(seeds))])
				}
				points += len(buf) - len(seeds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}

func BenchmarkKernelSteady(b *testing.B) {
	u, seeds := benchScene(b)
	o := DefaultOptions()
	s := SteadySampler{F: u.Steps[0], G: u.Grid}
	benchPaths(b, seeds,
		func(dst, seeds []vmath.Vec3) []vmath.Vec3 {
			dst, _ = AppendStreamlines(dst, s, seeds, 0, o)
			return dst
		},
		func(dst []vmath.Vec3, seed vmath.Vec3) []vmath.Vec3 { return streamlineOver(dst, s, seed, 0, o) })
}

func BenchmarkKernelUnsteady(b *testing.B) {
	u, seeds := benchScene(b)
	o := DefaultOptions()
	s := &lazySource{u: u, cache: map[int]*field.Field{}}
	maxTime := float32(len(u.Steps) - 1)
	benchPaths(b, seeds,
		func(dst, seeds []vmath.Vec3) []vmath.Vec3 {
			dst, _ = AppendParticlePaths(dst, s, seeds, 0.5, maxTime, o)
			return dst
		},
		func(dst []vmath.Vec3, seed vmath.Vec3) []vmath.Vec3 {
			return particlePathOver(dst, s, seed, 0.5, maxTime, o)
		})
}

func BenchmarkKernelStreak(b *testing.B) {
	u, seeds := benchScene(b)
	o := DefaultOptions()
	s := SteadySampler{F: u.Steps[0], G: u.Grid}
	for _, c := range []struct {
		name    string
		advance func(st *Streak)
	}{
		{"fused", func(st *Streak) { st.Advance(s, seeds, 0, o.StepSize, o.Method) }},
		{"step", func(st *Streak) { advanceOver(st, s, seeds, 0, o.StepSize, o.Method) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			st := NewStreak(20000)
			for i := 0; i < 100; i++ { // fill the wake with smoke
				c.advance(st)
			}
			b.ReportAllocs()
			b.ResetTimer()
			points := 0
			for i := 0; i < b.N; i++ {
				c.advance(st)
				points += len(st.Particles)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}

// maskedSource is a source some of whose levels cannot be had: Level
// hands out nil for them, counting each nil, and SampleVelocity — the
// oracle's view — is NaN wherever the bracket needs one, so the oracle's
// line ends at its last good point, where the kernel ends it.
type maskedSource struct {
	stepSource
	missing uint8 // bit i set: level i cannot be had
	nils    *int
}

func (m maskedSource) Level(i int) *field.Field {
	if m.missing&(1<<i) != 0 {
		*m.nils++
		return nil
	}
	return m.stepSource.Level(i)
}

func (m maskedSource) SampleVelocity(gc vmath.Vec3, t float32) vmath.Vec3 {
	lo, hi := 0, 0
	if last := m.NumLevels() - 1; last > 0 && t > 0 {
		if t >= float32(last) {
			lo, hi = last, last
		} else {
			lo = int(t)
			hi = lo + 1
		}
	}
	if m.missing&(1<<lo|1<<hi) != 0 {
		nan := float32(math.NaN())
		return vmath.Vec3{X: nan, Y: nan, Z: nan}
	}
	return m.stepSource.SampleVelocity(gc, t)
}

// warpedUnsteady is hostileUnsteady's two levels on a curvilinear grid
// of the same dimensions, so converting a point to physical coordinates
// is real arithmetic rather than the identity.
func warpedUnsteady(t testing.TB) *field.Unsteady {
	t.Helper()
	h := hostileUnsteady(t, rand.New(rand.NewSource(26)), 2)
	g, err := grid.New(h.Grid.NI, h.Grid.NJ, h.Grid.NK)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				fi, fj, fk := float32(i), float32(j), float32(k)
				g.SetAt(i, j, k, vmath.V3(fi*1.3+0.2*fj*fj, fj*0.7-0.15*fi*fk, fk*2.1+0.05*fi*fj))
			}
		}
	}
	u, err := field.NewUnsteady(g, h.Steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// FuzzKernelAgrees generates what TestKernelBitIdenticalToStep
// enumerates: raw float32 bit patterns for up to Lanes seeds, the step,
// t0 and maxTime; Euler, RK2 or RK4; MaxSteps 0, 1, 2 or 200; a group
// of 1 to Lanes seeds; a steady or a two-level source with any levels
// missing. One lock-step call must give every seed, bit for bit, the
// line the oracle gives it alone — streamlines and particle paths —
// and must ask the source for as many missing levels as the seeds' own
// one-lane calls do between them: one per path stopped. One streak
// advance of the group's seeds must match the oracle's too.
func FuzzKernelAgrees(f *testing.F) {
	u := warpedUnsteady(f)
	bits := math.Float32bits
	seedBytes := func(coords ...float32) []byte {
		b := make([]byte, 0, 4*len(coords))
		for _, c := range coords {
			b = binary.LittleEndian.AppendUint32(b, bits(c))
		}
		return b
	}
	interior := seedBytes(1, 1, 1, 2.5, 3, 2, 5.5, 2, 3.5, 0, 0, 0)
	f.Add(interior, bits(0.25), bits(0.3), bits(1), uint8(RK2), uint8(3), uint8(3), uint8(1))
	f.Add(interior, bits(-0.7), bits(1), bits(1), uint8(RK4), uint8(3), uint8(3), uint8(0))
	f.Add(interior, bits(0.25), bits(0.6), bits(1), uint8(Euler), uint8(3), uint8(2), uint8(1|4<<1))
	f.Add(seedBytes(5.5, 2, 3.5, 0.5, 0.5, 2), bits(4), bits(0), bits(1), uint8(RK2), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seedBits []byte, hBits, t0Bits, maxBits uint32, method, steps, lanes, source uint8) {
		var raw [3 * Lanes * 4]byte
		copy(raw[:], seedBits)
		seeds := make([]vmath.Vec3, 1+int(lanes)%Lanes)
		for i := range seeds {
			c := func(j int) float32 {
				return math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(3*i+j):]))
			}
			seeds[i] = vmath.V3(c(0), c(1), c(2))
		}
		h, t0, maxTime := math.Float32frombits(hBits), math.Float32frombits(t0Bits), math.Float32frombits(maxBits)
		o := Options{Method: Method(method % 3), StepSize: h, MaxSteps: []int{0, 1, 2, 200}[steps%4]}

		var nils int
		src := maskedSource{nils: &nils, missing: source >> 1 & 3}
		if source&1 == 0 {
			src.stepSource = SteadySampler{F: u.Steps[1], G: u.Grid}
			src.missing &= 1
		} else {
			// Step samples a two-level field at NaN time by indexing level
			// int(NaN), and t0 = ±Inf against the opposite infinite step
			// makes a NaN time: those have no oracle line to agree with.
			if t0-t0 != 0 || h != h {
				t.Skip()
			}
			src.stepSource = UnsteadySampler{U: u}
		}

		for _, kind := range []struct {
			name   string
			group  func(dst []vmath.Vec3) ([]vmath.Vec3, [Lanes]int)
			one    func(seed vmath.Vec3) []vmath.Vec3
			oracle func(seed vmath.Vec3) []vmath.Vec3
		}{
			{"streamline",
				func(dst []vmath.Vec3) ([]vmath.Vec3, [Lanes]int) { return AppendStreamlines(dst, src, seeds, t0, o) },
				func(seed vmath.Vec3) []vmath.Vec3 { return Streamline(src, seed, t0, o) },
				func(seed vmath.Vec3) []vmath.Vec3 { return streamlineOver(nil, src, seed, t0, o) }},
			{"particle path",
				func(dst []vmath.Vec3) ([]vmath.Vec3, [Lanes]int) {
					return AppendParticlePaths(dst, src, seeds, t0, maxTime, o)
				},
				func(seed vmath.Vec3) []vmath.Vec3 { return ParticlePath(src, seed, t0, maxTime, o) },
				func(seed vmath.Vec3) []vmath.Vec3 { return particlePathOver(nil, src, seed, t0, maxTime, o) }},
		} {
			// One point of capacity, taken: the call must grow dst and keep it.
			sentinel := vmath.V3(-7, -7, -7)
			nils = 0
			got, lens := kind.group([]vmath.Vec3{sentinel})
			groupNils := nils
			if !got[0].BitsEqual(sentinel) {
				t.Fatalf("%s: the point already in dst was overwritten", kind.name)
			}
			got = got[1:]
			nils = 0
			for i, seed := range seeds {
				want := kind.oracle(seed)
				if lens[i] > len(got) {
					t.Fatalf("%s seed %d: length %d, only %d points left", kind.name, i, lens[i], len(got))
				}
				requireSamePath(t, fmt.Sprintf("%s seed %d of %d", kind.name, i, len(seeds)), got[:lens[i]], want)
				got = got[lens[i]:]
				kind.one(seed) // counts its own missing levels
			}
			if len(got) != 0 {
				t.Fatalf("%s: %d points beyond the lines", kind.name, len(got))
			}
			for i := len(seeds); i < Lanes; i++ {
				if lens[i] != 0 {
					t.Fatalf("%s: lane %d has no seed but a length %d", kind.name, i, lens[i])
				}
			}
			if groupNils != nils {
				t.Fatalf("%s: the group asked for %d missing levels, its seeds alone %d", kind.name, groupNils, nils)
			}
		}

		fused, oracle := NewStreak(100), NewStreak(100)
		for frame := 0; frame < 2; frame++ {
			fused.Advance(src, seeds, t0, h, o.Method)
			advanceOver(oracle, src, seeds, t0, h, o.Method)
		}
		if len(fused.Particles) != len(oracle.Particles) {
			t.Fatalf("streak: %d particles, Step path %d", len(fused.Particles), len(oracle.Particles))
		}
		for i, p := range fused.Particles {
			if q := oracle.Particles[i]; !p.Pos.BitsEqual(q.Pos) || p.Seed != q.Seed || p.Age != q.Age {
				t.Fatalf("streak particle %d = %+v, Step path %+v", i, p, q)
			}
		}
	})
}
