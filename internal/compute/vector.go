package compute

import (
	"math"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
)

// Vector is the "vectorized" engine of §5.3: instead of integrating
// one streamline at a time, it advances a whole batch of streamlines
// one step per pass, with the inner loops running over the batch in
// structure-of-arrays form — the shape the Convex's 128-entry vector
// registers required. "Each component of each point in the streamline
// is handled in parallel by different processors. Thus three
// processors are used."
//
// The Go build gains from this shape too (cache-friendly streaming,
// bounds-check-friendly loops), which is the modern ablation of the
// paper's scalar-vs-vector conflict.
type Vector struct {
	// VectorLength is the batch chunk size; 0 means the Convex's 128.
	VectorLength int
}

// Name implements Engine.
func (Vector) Name() string { return "vector-3" }

// Workers implements Engine: the component-parallel decomposition uses
// three processors, one per velocity component.
func (Vector) Workers() int { return 3 }

func (v Vector) vlen() int {
	if v.VectorLength > 0 {
		return v.VectorLength
	}
	return 128
}

// BatchSampler exposes the raw component arrays of the sampled
// timestep so batch loops can stream them. Only steady (single
// timestep) sampling is batchable; that is exactly the streamline
// case the paper vectorized.
type BatchSampler interface {
	integrate.Sampler
	// Batch returns the grid and velocity component arrays.
	Batch() (g *grid.Grid, u, vv, w []float32)
}

// SteadyBatch adapts a single timestep for both scalar and batch
// engines.
type SteadyBatch struct {
	F *field.Field
	G *grid.Grid
}

// SampleVelocity implements integrate.Sampler.
func (s SteadyBatch) SampleVelocity(gc vmath.Vec3, _ float32) vmath.Vec3 {
	return s.F.Sample(s.G, gc)
}

// Grid implements integrate.Sampler.
func (s SteadyBatch) Grid() *grid.Grid { return s.G }

// NumLevels implements integrate.LevelSource: one steady level, which
// puts the fused kernel under every engine that integrates a
// SteadyBatch seed by seed.
func (s SteadyBatch) NumLevels() int { return 1 }

// Level implements integrate.LevelSource.
func (s SteadyBatch) Level(int) *field.Field { return s.F }

// Batch implements BatchSampler.
func (s SteadyBatch) Batch() (*grid.Grid, []float32, []float32, []float32) {
	return s.G, s.F.U, s.F.V, s.F.W
}

// Streamlines implements Engine. If the sampler is not batchable it
// falls back to the parallel scalar engine with the same worker count.
func (v Vector) Streamlines(s integrate.Sampler, seeds []vmath.Vec3, t float32, o integrate.Options) ([][]vmath.Vec3, Stats) {
	bs, ok := s.(BatchSampler)
	if !ok || (o.Method != integrate.Euler && o.Method != integrate.RK2) {
		return Parallel{NumWorkers: v.Workers()}.Streamlines(s, seeds, t, o)
	}
	g, fu, fv, fw := bs.Batch()

	paths := make([][]vmath.Vec3, len(seeds))
	var points int64

	chunk := v.vlen()
	for lo := 0; lo < len(seeds); lo += chunk {
		hi := lo + chunk
		if hi > len(seeds) {
			hi = len(seeds)
		}
		points += v.batch(g, fu, fv, fw, seeds[lo:hi], paths[lo:hi], o)
	}
	return paths, statsFor(points, o.Method)
}

// batch advances up to VectorLength streamlines in lock step.
func (v Vector) batch(g *grid.Grid, fu, fv, fw []float32, seeds []vmath.Vec3, paths [][]vmath.Vec3, o integrate.Options) int64 {
	n := len(seeds)
	// SoA state of the particle batch.
	px := make([]float32, 0, n)
	py := make([]float32, 0, n)
	pz := make([]float32, 0, n)
	lane2seed := make([]int, 0, n) // lane -> seed index (lanes compact as particles die)
	for i, seed := range seeds {
		paths[i] = nil
		if g.InBounds(seed) {
			paths[i] = append(make([]vmath.Vec3, 0, o.MaxSteps+1), seed)
			px = append(px, seed.X)
			py = append(py, seed.Y)
			pz = append(pz, seed.Z)
			lane2seed = append(lane2seed, i)
		}
	}

	minSpeed := o.EffectiveMinSpeed()
	// Scratch arrays sized to the live lane count.
	k1x := make([]float32, len(px))
	k1y := make([]float32, len(px))
	k1z := make([]float32, len(px))
	k2x := make([]float32, len(px))
	k2y := make([]float32, len(px))
	k2z := make([]float32, len(px))
	mx := make([]float32, len(px))
	my := make([]float32, len(px))
	mz := make([]float32, len(px))
	cells := make([]cellRef, len(px))

	var points int64
	for step := 0; step < o.MaxSteps && len(px) > 0; step++ {
		live := len(px)
		// Stage 1: locate cells for all lanes (one pass), then
		// interpolate each component over all lanes (three passes) —
		// the vectorizable loops.
		locateCells(g, px[:live], py[:live], pz[:live], cells[:live])
		interpComponent(g, fu, cells[:live], k1x[:live])
		interpComponent(g, fv, cells[:live], k1y[:live])
		interpComponent(g, fw, cells[:live], k1z[:live])

		h := o.StepSize
		if o.Method == integrate.RK2 {
			// Midpoint positions.
			for l := 0; l < live; l++ {
				mx[l] = px[l] + k1x[l]*h/2
				my[l] = py[l] + k1y[l]*h/2
				mz[l] = pz[l] + k1z[l]*h/2
			}
			locateCells(g, mx[:live], my[:live], mz[:live], cells[:live])
			interpComponent(g, fu, cells[:live], k2x[:live])
			interpComponent(g, fv, cells[:live], k2y[:live])
			interpComponent(g, fw, cells[:live], k2z[:live])
		} else {
			copy(k2x[:live], k1x[:live])
			copy(k2y[:live], k1y[:live])
			copy(k2z[:live], k1z[:live])
		}

		// Advance and compact dead lanes.
		out := 0
		for l := 0; l < live; l++ {
			speedSq := k1x[l]*k1x[l] + k1y[l]*k1y[l] + k1z[l]*k1z[l]
			if speedSq < minSpeed*minSpeed {
				continue
			}
			nx := px[l] + k2x[l]*h
			ny := py[l] + k2y[l]*h
			nz := pz[l] + k2z[l]*h
			np := vmath.Vec3{X: nx, Y: ny, Z: nz}
			if !g.InBounds(np) || !np.IsFinite() {
				continue
			}
			seedIdx := lane2seed[l]
			paths[seedIdx] = append(paths[seedIdx], np)
			points++
			px[out], py[out], pz[out] = nx, ny, nz
			lane2seed[out] = seedIdx
			out++
		}
		px, py, pz = px[:out], py[:out], pz[:out]
		lane2seed = lane2seed[:out]
	}
	return points
}

// ParticlePaths implements Engine by falling back to the parallel
// engine: the paper only vectorized the streamline computation ("the
// computation of an individual streamline is an iterative process").
func (v Vector) ParticlePaths(s integrate.Sampler, seeds []vmath.Vec3, t0, maxTime float32, o integrate.Options) ([][]vmath.Vec3, Stats) {
	return Parallel{NumWorkers: v.Workers()}.ParticlePaths(s, seeds, t0, maxTime, o)
}

// cellRef is a located interpolation stencil: base linear index plus
// fractional offsets.
type cellRef struct {
	base       int32
	fx, fy, fz float32
}

// locateCells computes the interpolation stencil for each lane.
func locateCells(g *grid.Grid, px, py, pz []float32, cells []cellRef) {
	ni, nj, nk := g.NI, g.NJ, g.NK
	for l := range px {
		i0, fx := splitClamp(px[l], ni)
		j0, fy := splitClamp(py[l], nj)
		k0, fz := splitClamp(pz[l], nk)
		cells[l] = cellRef{
			base: int32((k0*nj+j0)*ni + i0),
			fx:   fx, fy: fy, fz: fz,
		}
	}
}

func splitClamp(c float32, n int) (int, float32) {
	i := int(math.Floor(float64(c)))
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	f := c - float32(i)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return i, f
}

// interpComponent performs the per-component trilinear interpolation
// over all lanes — the paper's "8 floating point loads ... per
// component per point" as one streaming loop.
func interpComponent(g *grid.Grid, a []float32, cells []cellRef, out []float32) {
	ni := g.NI
	slab := g.NI * g.NJ
	for l, c := range cells {
		base := int(c.base)
		c000 := a[base]
		c100 := a[base+1]
		c010 := a[base+ni]
		c110 := a[base+ni+1]
		c001 := a[base+slab]
		c101 := a[base+slab+1]
		c011 := a[base+slab+ni]
		c111 := a[base+slab+ni+1]
		c00 := c000 + c.fx*(c100-c000)
		c10 := c010 + c.fx*(c110-c010)
		c01 := c001 + c.fx*(c101-c001)
		c11 := c011 + c.fx*(c111-c011)
		c0 := c00 + c.fy*(c10-c00)
		c1 := c01 + c.fy*(c11-c01)
		out[l] = c0 + c.fz*(c1-c0)
	}
}
