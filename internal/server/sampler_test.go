package server

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// variedDataset is testDataset with a different random field per step,
// so time interpolation and the bracket a sample lands in both show up
// in the bits.
func variedDataset(t testing.TB, numSteps int) *store.Memory {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g, err := grid.NewCartesian(12, 10, 6, vmath.AABB{Max: vmath.V3(11, 9, 5)})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, numSteps)
	for s := range steps {
		f := field.NewField(12, 10, 6, field.GridCoords)
		for i := range f.U {
			f.U[i], f.V[i], f.W[i] = 0.2+rng.Float32(), rng.Float32()-0.5, rng.Float32()-0.5
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewMemory(u)
}

// TestStoreSamplerKernelBitIdentical: the kernel over the store-backed
// sampler must produce exactly what it produces over the same resident
// field.Unsteady — every method, both directions, starts before, inside
// and beyond the dataset's time range. (integrate's own tests hold the
// kernel to its Step-over-SampleVelocity oracle.)
func TestStoreSamplerKernelBitIdentical(t *testing.T) {
	mem := variedDataset(t, 9)
	var ss storeSampler
	ss.reset(mem)
	resident := integrate.UnsteadySampler{U: mem.Unsteady()}
	seeds := []vmath.Vec3{{X: 1, Y: 4, Z: 2}, {X: 0, Y: 0, Z: 0}, {X: 11, Y: 9, Z: 5}, {X: 5.5, Y: 2.25, Z: 4.75}, {X: -1, Y: 2, Z: 2}}
	points := 0
	for _, m := range []integrate.Method{integrate.Euler, integrate.RK2, integrate.RK4} {
		for _, h := range []float32{0.25, -0.25, 0.6} {
			o := integrate.Options{Method: m, StepSize: h, MaxSteps: 60}
			for _, t0 := range []float32{-0.5, 0, 0.4, 2, 7.9, 8, 10} {
				for _, seed := range seeds {
					got := integrate.ParticlePath(&ss, seed, t0, 8, o)
					want := integrate.ParticlePath(resident, seed, t0, 8, o)
					if len(got) != len(want) {
						t.Fatalf("%v h=%g t0=%g seed %v: store path has %d points, resident path %d", m, h, t0, seed, len(got), len(want))
					}
					for i := range want {
						if !got[i].BitsEqual(want[i]) {
							t.Fatalf("%v h=%g t0=%g seed %v point %d: %v vs %v", m, h, t0, seed, i, got[i], want[i])
						}
					}
					points += len(got)
				}
			}
		}
	}
	if points < 1000 {
		t.Errorf("only %d points compared", points)
	}
	if ss.failed != 0 {
		t.Errorf("%d failed levels on a resident dataset", ss.failed)
	}
}

// failingStore loads steps below failFrom and fails the rest. It is not
// a store.Source, so the server reads it through a store.Cache.
type failingStore struct {
	store.Store
	failFrom int
	loads    map[int]int
}

func (f *failingStore) LoadStep(t int) (*field.Field, error) {
	f.loads[t]++
	if t >= f.failFrom {
		return nil, errors.New("failingStore: step unreadable")
	}
	return f.Store.LoadStep(t)
}

// TestFailedLoadEndsPathsAndIsCounted: a particle path that needs a
// timestep the store cannot load ends at its last good point — it used
// to sample the missing step as still fluid and, having no stagnation
// test, repeat one point until time ran out — and the server counts it.
func TestFailedLoadEndsPathsAndIsCounted(t *testing.T) {
	st := &failingStore{Store: testDataset(t, 20), failFrom: 3, loads: map[int]int{}}
	s, c, _ := startTestServer(t, Config{Store: st})
	r := frame(t, c, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 8, 4), vmath.V3(1, 9, 4), 2, integrate.ToolParticlePath),
		addRakeCmd(vmath.V3(1, 5, 4), vmath.V3(1, 6, 4), 2, integrate.ToolParticlePath),
	}})
	if len(r.Geometry) != 2 {
		t.Fatalf("geometry = %d", len(r.Geometry))
	}
	// StepSize 0.25 from t = 0: the eight steps starting below t = 2
	// sample inside levels 0..2; the step from t = 2 needs level 3.
	for _, g := range r.Geometry {
		for _, l := range g.Lines {
			if len(l) != 9 {
				t.Errorf("rake %d: path has %d points, want 9", g.Rake, len(l))
			}
			for i := 1; i < len(l); i++ {
				if l[i] == l[i-1] {
					t.Errorf("rake %d: point %d repeats its predecessor %v", g.Rake, i, l[i])
				}
			}
		}
	}
	if got := s.Stats().PathLoadFailures; got != 4 {
		t.Errorf("PathLoadFailures = %d, want 4 (two rakes x two seeds)", got)
	}
	// Both rakes shared the round's sampler: the unreadable step was
	// attempted once by it (and once by the window's slide), not once
	// per path or per rake.
	if st.loads[3] > 2 {
		t.Errorf("step 3 was attempted %d times in one round", st.loads[3])
	}
	// A paused scene is a memo hit: nothing recomputes, nothing recounts.
	frame(t, c, wire.ClientUpdate{})
	if got := s.Stats().PathLoadFailures; got != 4 {
		t.Errorf("PathLoadFailures = %d after a memoized frame, want 4", got)
	}

	// The kernel traces integrate.Lanes paths in lock step and they share
	// one bracket, not one count: five seeds are a full group plus one,
	// every path inside the domain stops and counts, and the seed outside
	// it counts nothing.
	var ss storeSampler
	ss.reset(st)
	seeds := []vmath.Vec3{{X: 1, Y: 8, Z: 4}, {X: 1, Y: 9, Z: 4}, {X: -1, Y: 8, Z: 4}, {X: 1, Y: 5, Z: 4}, {X: 1, Y: 6, Z: 4}}
	paths, _ := compute.Scalar{}.ParticlePaths(&ss, seeds, 0, 19, integrate.DefaultOptions())
	for i, p := range paths {
		if want := map[bool]int{true: 0, false: 9}[i == 2]; len(p) != want {
			t.Errorf("seed %d: path has %d points, want %d", i, len(p), want)
		}
	}
	if ss.failed != 4 {
		t.Errorf("five seeds, one outside the domain: %d paths counted as stopped, want 4", ss.failed)
	}
}
