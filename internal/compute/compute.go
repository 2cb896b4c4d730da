// Package compute implements the visualization computation engines of
// §5.3: the scalar code path, sequential or parallelized across
// streamlines (the Convex ran it on 4 processors, the SGI workstation on
// 8). The paper's vectorized code and the vector-parallel hybrid it
// proposed are cost models here (ConvexVector3, ConvexHybrid4), priced
// over the same work units.
//
// Engines do the real integration work and also count the field
// accesses the paper counts (§5.3: RK2 is "two accesses of the vector
// field data ... per component per point", plus one conversion access
// per component to return to physical coordinates). A CostModel maps
// those counts onto 1992 processors, reproducing the paper's absolute
// benchmark times; what the same engines cost on a modern host is
// BenchmarkEngineRake's and the benchmark's to measure.
//
//vw:deterministic
package compute

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/integrate"
	"repro/internal/vmath"
)

// Stats counts the work units of one computation.
type Stats struct {
	// Points is the number of path points produced (excluding seeds).
	Points int64
	// SampleUnits is the number of component-trilinear-interpolations
	// performed against velocity data (one "8 floating point loads
	// plus a trilinear interpolation").
	SampleUnits int64
	// ConvertUnits is the number of component-trilerps performed to
	// convert grid coordinates back to physical coordinates.
	ConvertUnits int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Points += other.Points
	s.SampleUnits += other.SampleUnits
	s.ConvertUnits += other.ConvertUnits
}

// Units returns total work units.
func (s Stats) Units() int64 { return s.SampleUnits + s.ConvertUnits }

// samplesPerStep returns field accesses per integration step for a
// method (per point, per component).
func samplesPerStep(m integrate.Method) int64 {
	switch m {
	case integrate.Euler:
		return 1
	case integrate.RK2:
		return 2
	case integrate.RK4:
		return 4
	default:
		return 2
	}
}

// UnitsPerPoint returns the work units one path point costs under
// method m — the §5.3 accounting the CostModel prices: samplesPerStep
// field accesses per component plus one conversion access per
// component, three components each. This is the constant the server's
// frame-budget governor multiplies into seeds x steps to predict a
// rake's integration cost before running it.
func UnitsPerPoint(m integrate.Method) int64 {
	return samplesPerStep(m)*3 + 3
}

// statsFor computes the §5.3 work accounting for paths with the given
// total point count (seeds excluded).
func statsFor(points int64, m integrate.Method) Stats {
	return Stats{
		Points: points,
		// per point: samplesPerStep accesses x 3 components
		SampleUnits: points * samplesPerStep(m) * 3,
		// per point: one conversion x 3 components
		ConvertUnits: points * 3,
	}
}

// Engine computes visualization geometry for many seeds at once.
type Engine interface {
	// Name identifies the engine in benchmark tables.
	Name() string
	// Workers returns the logical processor count the engine models.
	Workers() int
	// Streamlines integrates one streamline per seed (grid coordinates)
	// at fixed time t, returning physical-coordinate paths (parallel to
	// seeds; a seed outside the domain yields an empty path).
	Streamlines(s integrate.Sampler, seeds []vmath.Vec3, t float32, o integrate.Options) ([][]vmath.Vec3, Stats)
	// ParticlePaths integrates one particle path per seed from t0, under
	// Streamlines' contract.
	ParticlePaths(s integrate.Sampler, seeds []vmath.Vec3, t0, maxTime float32, o integrate.Options) ([][]vmath.Vec3, Stats)
}

// SteadyBatch samples a single timestep at every time t: the steady
// sampler the engines' streamline callers hand them.
type SteadyBatch = integrate.SteadySampler

// tracer appends the paths of up to integrate.Lanes seeds to dst and
// returns their lengths — integrate.AppendStreamlines or
// AppendParticlePaths with an engine call's arguments bound.
type tracer func(dst, seeds []vmath.Vec3) ([]vmath.Vec3, [integrate.Lanes]int)

func streamlineTracer(s integrate.Sampler, t float32, o integrate.Options) tracer {
	return func(dst, seeds []vmath.Vec3) ([]vmath.Vec3, [integrate.Lanes]int) {
		return integrate.AppendStreamlines(dst, s, seeds, t, o)
	}
}

func particlePathTracer(s integrate.Sampler, t0, maxTime float32, o integrate.Options) tracer {
	return func(dst, seeds []vmath.Vec3) ([]vmath.Vec3, [integrate.Lanes]int) {
		return integrate.AppendParticlePaths(dst, s, seeds, t0, maxTime, o)
	}
}

// traceRange traces seeds[i] into paths[i] on the calling goroutine,
// integrate.Lanes seeds at a time, and returns the points produced
// after the seeds. Lines are carved front to back out of a few arena
// chunks the range owns, each line capped at its own length
// (buf[a:b:b]) so appending to one reallocates instead of running into
// its neighbour. A group is traced into the chunk only when the chunk
// has room for every line of it at full length. The first chunk has
// room for a few full lines, enough to see what the lines here are
// like; a later one is sized for the rest of the range at the mean
// length so far plus an eighth, at least double its predecessor (a
// misleading start costs a logarithmic number of chunks) and never more
// than the rest of the range could fill. Allocation so follows the
// points produced, not seeds x MaxSteps, and the chunk count does not
// grow with the seeds.
func traceRange(paths [][]vmath.Vec3, seeds []vmath.Vec3, trace tracer, o integrate.Options) (points int64) {
	maxLine := o.MaxSteps + 1
	var buf []vmath.Vec3
	produced := 0 // points in the lines traced so far, seeds included
	for i := 0; i < len(seeds); i += integrate.Lanes {
		group := seeds[i:min(i+integrate.Lanes, len(seeds))]
		if cap(buf)-len(buf) < len(group)*maxLine {
			left := len(seeds) - i
			need := min(left, firstChunkLines) * maxLine
			if i > 0 {
				need = len(group)*maxLine + left*(produced/i+1)*9/8
			}
			buf = make([]vmath.Vec3, 0, min(max(need, 2*cap(buf)), left*maxLine))
		}
		start := len(buf)
		var lens [integrate.Lanes]int
		buf, lens = trace(buf, group)
		for j, n := range lens[:len(group)] {
			paths[i+j] = buf[start : start+n : start+n]
			start += n
			if n > 0 {
				produced += n
				points += int64(n - 1)
			}
		}
	}
	return points
}

// firstChunkLines is how many full-length lines a range's first arena
// chunk has room for.
const firstChunkLines = 8

// Scalar is the sequential baseline: optimized scalar code, one
// processor.
type Scalar struct{}

// Name implements Engine.
func (Scalar) Name() string { return "scalar-1" }

// Workers implements Engine.
func (Scalar) Workers() int { return 1 }

// Streamlines implements Engine.
func (Scalar) Streamlines(s integrate.Sampler, seeds []vmath.Vec3, t float32, o integrate.Options) ([][]vmath.Vec3, Stats) {
	paths := make([][]vmath.Vec3, len(seeds))
	return paths, statsFor(traceRange(paths, seeds, streamlineTracer(s, t, o), o), o.Method)
}

// ParticlePaths implements Engine.
func (Scalar) ParticlePaths(s integrate.Sampler, seeds []vmath.Vec3, t0, maxTime float32, o integrate.Options) ([][]vmath.Vec3, Stats) {
	paths := make([][]vmath.Vec3, len(seeds))
	return paths, statsFor(traceRange(paths, seeds, particlePathTracer(s, t0, maxTime, o), o), o.Method)
}

// Parallel distributes whole streamlines across a pool of workers —
// "This code successfully parallelizes across the four processors of
// the Convex by distributing the streamlines among the processors."
// Each worker takes one contiguous range of the seeds; the calling
// goroutine is the first worker.
type Parallel struct {
	// NumWorkers is the logical processor count; 0 uses GOMAXPROCS.
	NumWorkers int
}

// Name implements Engine.
func (p Parallel) Name() string { return fmt.Sprintf("parallel-%d", p.workers()) }

// Workers implements Engine.
func (p Parallel) Workers() int { return p.workers() }

func (p Parallel) workers() int {
	if p.NumWorkers > 0 {
		return p.NumWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Streamlines implements Engine.
func (p Parallel) Streamlines(s integrate.Sampler, seeds []vmath.Vec3, t float32, o integrate.Options) ([][]vmath.Vec3, Stats) {
	return p.fanOut(seeds, streamlineTracer(s, t, o), o)
}

// ParticlePaths implements Engine.
func (p Parallel) ParticlePaths(s integrate.Sampler, seeds []vmath.Vec3, t0, maxTime float32, o integrate.Options) ([][]vmath.Vec3, Stats) {
	return p.fanOut(seeds, particlePathTracer(s, t0, maxTime, o), o)
}

// minSeedsPerWorker is the smallest range worth a goroutine of its own:
// starting and joining one costs about what a few short lines do.
const minSeedsPerWorker = 4

// rangeWorkers is how many ranges n seeds split into for at most limit
// workers: every range gets minSeedsPerWorker seeds or more, so a small
// rake (or an empty one) runs on the caller alone.
func rangeWorkers(n, limit int) int {
	return max(1, min(limit, n/minSeedsPerWorker))
}

func (p Parallel) fanOut(seeds []vmath.Vec3, one tracer, o integrate.Options) ([][]vmath.Vec3, Stats) {
	paths := make([][]vmath.Vec3, len(seeds))
	workers := rangeWorkers(len(seeds), p.workers())
	per := (len(seeds) + workers - 1) / workers
	var points atomic.Int64
	var wg sync.WaitGroup
	for lo := per; lo < len(seeds); lo += per {
		hi := min(lo+per, len(seeds))
		wg.Add(1)
		go func() {
			defer wg.Done()
			points.Add(traceRange(paths[lo:hi], seeds[lo:hi], one, o))
		}()
	}
	first := min(per, len(seeds))
	points.Add(traceRange(paths[:first], seeds[:first], one, o))
	wg.Wait()
	return paths, statsFor(points.Load(), o.Method)
}
