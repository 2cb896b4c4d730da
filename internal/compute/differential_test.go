package compute

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
)

// The differential battery: every engine must be interchangeable with
// the Scalar reference — identical Stats counts and identical path
// lengths — on randomized (but seeded, hence reproducible) rake/grid
// configurations, not just the handful of hand-built fields above.
// Scalar and Parallel run the same per-particle kernel, so their
// coordinates must match bit for bit; the lock-step Vector engine and
// Hybrid order the speed-floor test differently and are held to 1e-6.
// The tests log whether those two happened to be bit-equal as well —
// the evidence a PR removing them would want.

// randomBatch builds a random smooth field on a random grid. Velocity
// components stay in ~[0.2, 1.0] so speeds sit far above MinSpeed:
// the one expression-order divergence between the scalar and vector
// paths is the speed-floor comparison (Len() vs squared), and keeping
// every sample away from the floor makes the 1e-6 contract exact
// rather than luck.
func randomBatch(t *testing.T, rng *rand.Rand) SteadyBatch {
	t.Helper()
	ni := 8 + rng.Intn(17)
	nj := 8 + rng.Intn(17)
	nk := 8 + rng.Intn(9)
	g, err := grid.NewCartesian(ni, nj, nk, vmath.AABB{
		Min: vmath.V3(0, 0, 0),
		Max: vmath.V3(float32(ni-1), float32(nj-1), float32(nk-1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := field.NewField(ni, nj, nk, field.GridCoords)
	comp := func() float32 { return 0.2 + 0.8*rng.Float32() }
	// Random per-axis base flow plus low-amplitude per-cell jitter:
	// smooth enough for long paths, random enough to differ per case.
	bu, bv, bw := comp(), comp(), comp()
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				f.SetAt(i, j, k, vmath.Vec3{
					X: bu + 0.1*rng.Float32(),
					Y: bv + 0.1*rng.Float32(),
					Z: bw + 0.1*rng.Float32(),
				})
			}
		}
	}
	return SteadyBatch{F: f, G: g}
}

// randomSeeds places n seeds strictly inside the grid interior.
func randomSeeds(rng *rand.Rand, g *grid.Grid, n int) []vmath.Vec3 {
	b := g.Bounds()
	span := b.Max.Sub(b.Min)
	seeds := make([]vmath.Vec3, n)
	for i := range seeds {
		seeds[i] = vmath.Vec3{
			X: b.Min.X + span.X*(0.1+0.8*rng.Float32()),
			Y: b.Min.Y + span.Y*(0.1+0.8*rng.Float32()),
			Z: b.Min.Z + span.Z*(0.1+0.8*rng.Float32()),
		}
	}
	return seeds
}

// exact reports whether e shares the Scalar engine's kernel and must
// reproduce its bits.
func exact(e Engine) bool {
	_, ok := e.(Parallel)
	return ok
}

// comparePaths holds paths to ref: bit for bit when the engine is exact,
// within 1e-6 otherwise. It returns whether every point was bit-equal.
func comparePaths(t *testing.T, e Engine, paths, ref [][]vmath.Vec3) (bitEqual bool) {
	t.Helper()
	if len(paths) != len(ref) {
		t.Fatalf("%s: %d paths, scalar %d", e.Name(), len(paths), len(ref))
	}
	bitEqual = true
	for i := range ref {
		if len(paths[i]) != len(ref[i]) {
			t.Fatalf("%s: path %d has %d points, scalar %d",
				e.Name(), i, len(paths[i]), len(ref[i]))
		}
		for p := range ref[i] {
			got, want := paths[i][p], ref[i][p]
			same := got.BitsEqual(want)
			bitEqual = bitEqual && same
			if exact(e) && !same {
				t.Fatalf("%s: path %d point %d = %v, scalar %v (bits differ)",
					e.Name(), i, p, got, want)
			}
			if !got.ApproxEqual(want, 1e-6) {
				t.Fatalf("%s: path %d point %d = %v, scalar %v (beyond 1e-6)",
					e.Name(), i, p, got, want)
			}
		}
	}
	return bitEqual
}

// logInexact records which 1e-6 engines were not also bit-equal.
func logInexact(t *testing.T, inexact map[string]int, cases int) {
	if len(inexact) == 0 {
		t.Logf("every engine was bit-equal to scalar on all %d cases", cases)
		return
	}
	for name, n := range inexact {
		t.Logf("%s: within 1e-6 of scalar but not bit-equal on %d engine runs over %d cases", name, n, cases)
	}
}

func TestDifferentialEnginesRandomized(t *testing.T) {
	const cases = 20
	rng := rand.New(rand.NewSource(0x5ca1ab1e))
	methods := []integrate.Method{integrate.RK2, integrate.Euler}
	inexact := map[string]int{}
	defer logInexact(t, inexact, cases)
	for c := 0; c < cases; c++ {
		batch := randomBatch(t, rng)
		seeds := randomSeeds(rng, batch.G, 1+rng.Intn(64))
		o := integrate.Options{
			Method:   methods[c%len(methods)],
			StepSize: 0.1 + 0.4*rng.Float32(),
			MaxSteps: 10 + rng.Intn(190),
			MinSpeed: 1e-6,
		}
		t.Run(fmt.Sprintf("case%02d", c), func(t *testing.T) {
			ref, refStats := Scalar{}.Streamlines(batch, seeds, 0, o)
			others := []Engine{
				Parallel{NumWorkers: 1 + rng.Intn(8)},
				Vector{VectorLength: 16},
				Vector{VectorLength: 3 + rng.Intn(29)},
				Hybrid{NumWorkers: 3, VectorLength: 8},
			}
			for _, e := range others {
				paths, stats := e.Streamlines(batch, seeds, 0, o)
				if stats.Points != refStats.Points {
					t.Errorf("%s: Points=%d, scalar %d", e.Name(), stats.Points, refStats.Points)
				}
				if stats.SampleUnits != refStats.SampleUnits || stats.ConvertUnits != refStats.ConvertUnits {
					t.Errorf("%s: units (%d,%d), scalar (%d,%d)", e.Name(),
						stats.SampleUnits, stats.ConvertUnits,
						refStats.SampleUnits, refStats.ConvertUnits)
				}
				if !comparePaths(t, e, paths, ref) {
					inexact[e.Name()]++
				}
			}
		})
	}
}

// TestDifferentialParticlePathsRandomized runs the same contract over
// the time-dependent entry point (steady field, so the engines' time
// plumbing is exercised without changing the expected answer).
func TestDifferentialParticlePathsRandomized(t *testing.T) {
	const cases = 8
	rng := rand.New(rand.NewSource(0xdeadbeef))
	inexact := map[string]int{}
	defer logInexact(t, inexact, cases)
	for c := 0; c < cases; c++ {
		batch := randomBatch(t, rng)
		seeds := randomSeeds(rng, batch.G, 1+rng.Intn(32))
		o := integrate.Options{
			Method:   integrate.RK2,
			StepSize: 0.1 + 0.3*rng.Float32(),
			MaxSteps: 10 + rng.Intn(90),
			MinSpeed: 1e-6,
		}
		t.Run(fmt.Sprintf("case%02d", c), func(t *testing.T) {
			ref, refStats := Scalar{}.ParticlePaths(batch, seeds, 0, 1000, o)
			for _, e := range []Engine{
				Parallel{NumWorkers: 1 + rng.Intn(8)},
				Vector{VectorLength: 16},
				Hybrid{NumWorkers: 3, VectorLength: 8},
			} {
				paths, stats := e.ParticlePaths(batch, seeds, 0, 1000, o)
				if stats.Points != refStats.Points {
					t.Errorf("%s: Points=%d, scalar %d", e.Name(), stats.Points, refStats.Points)
				}
				if !comparePaths(t, e, paths, ref) {
					inexact[e.Name()]++
				}
			}
		})
	}
}
