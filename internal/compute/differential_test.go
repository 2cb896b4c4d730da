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
// the Scalar reference — identical Stats counts and bit-identical
// coordinates — on randomized (but seeded, hence reproducible) rake/grid
// configurations, not just the handful of hand-built fields above. The
// engines share integrate's kernel, and Scalar is held to each seed
// traced alone through integrate's one-lane calls: the engines' lock-step
// groups and line arenas change no bit. (integrate holds the kernel
// itself to its Step-over-SampleVelocity oracle.)

// randomBatch builds a random smooth field on a random grid. Velocity
// components stay in ~[0.2, 1.0], far above MinSpeed, so paths run long.
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

// oneByOne traces each seed alone.
func oneByOne(seeds []vmath.Vec3, trace func(seed vmath.Vec3) []vmath.Vec3) [][]vmath.Vec3 {
	paths := make([][]vmath.Vec3, len(seeds))
	for i, seed := range seeds {
		paths[i] = trace(seed)
	}
	return paths
}

// differentialEngines are held to Scalar in every case: one worker (the
// caller alone), and two counts that split most rakes unevenly.
var differentialEngines = []Engine{
	Parallel{NumWorkers: 1}, Parallel{NumWorkers: 3}, Parallel{NumWorkers: 7},
}

// comparePaths holds paths to ref bit for bit.
func comparePaths(t *testing.T, name string, paths, ref [][]vmath.Vec3) {
	t.Helper()
	if len(paths) != len(ref) {
		t.Fatalf("%s: %d paths, scalar %d", name, len(paths), len(ref))
	}
	for i := range ref {
		if len(paths[i]) != len(ref[i]) {
			t.Fatalf("%s: path %d has %d points, scalar %d",
				name, i, len(paths[i]), len(ref[i]))
		}
		for p := range ref[i] {
			if got, want := paths[i][p], ref[i][p]; !got.BitsEqual(want) {
				t.Fatalf("%s: path %d point %d = %v, scalar %v (bits differ)",
					name, i, p, got, want)
			}
		}
	}
}

func TestDifferentialEnginesRandomized(t *testing.T) {
	const cases = 20
	rng := rand.New(rand.NewSource(0x5ca1ab1e))
	methods := []integrate.Method{integrate.RK2, integrate.Euler}
	for c := 0; c < cases; c++ {
		batch := randomBatch(t, rng)
		seeds := randomSeeds(rng, batch.G, 1+rng.Intn(64))
		o := integrate.Options{
			Method:   methods[c%len(methods)],
			StepSize: 0.1 + 0.4*rng.Float32(),
			MaxSteps: 10 + rng.Intn(190),
			MinSpeed: 1e-6,
		}
		// Two draws a case used to pick engine widths; burning them keeps
		// the 20 fields, rakes and options the ones every PR since the
		// battery landed was checked on.
		rng.Intn(8)
		rng.Intn(29)
		t.Run(fmt.Sprintf("case%02d", c), func(t *testing.T) {
			ref, refStats := Scalar{}.Streamlines(batch, seeds, 0, o)
			comparePaths(t, "one seed at a time", oneByOne(seeds, func(seed vmath.Vec3) []vmath.Vec3 {
				return integrate.Streamline(batch, seed, 0, o)
			}), ref)
			for _, e := range differentialEngines {
				paths, stats := e.Streamlines(batch, seeds, 0, o)
				if stats != refStats {
					t.Errorf("%s: stats %+v, scalar %+v", e.Name(), stats, refStats)
				}
				comparePaths(t, e.Name(), paths, ref)
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
	for c := 0; c < cases; c++ {
		batch := randomBatch(t, rng)
		seeds := randomSeeds(rng, batch.G, 1+rng.Intn(32))
		o := integrate.Options{
			Method:   integrate.RK2,
			StepSize: 0.1 + 0.3*rng.Float32(),
			MaxSteps: 10 + rng.Intn(90),
			MinSpeed: 1e-6,
		}
		rng.Intn(8) // as above: keeps the 8 cases the ones always checked
		t.Run(fmt.Sprintf("case%02d", c), func(t *testing.T) {
			ref, refStats := Scalar{}.ParticlePaths(batch, seeds, 0, 1000, o)
			comparePaths(t, "one seed at a time", oneByOne(seeds, func(seed vmath.Vec3) []vmath.Vec3 {
				return integrate.ParticlePath(batch, seed, 0, 1000, o)
			}), ref)
			for _, e := range differentialEngines {
				paths, stats := e.ParticlePaths(batch, seeds, 0, 1000, o)
				if stats != refStats {
					t.Errorf("%s: stats %+v, scalar %+v", e.Name(), stats, refStats)
				}
				comparePaths(t, e.Name(), paths, ref)
			}
		})
	}
}
