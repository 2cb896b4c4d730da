package main

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/datasets"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/isosurf"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// The §5.3 evaluation workload: "a benchmark computation of 100
// streamlines each containing 200 points was performed. This scenario
// contains 20,000 points with a transfer over the networks of 240,000
// bytes of data."
const (
	BenchStreamlines    = 100
	BenchPointsPerLine  = 200
	BenchTotalPoints    = BenchStreamlines * BenchPointsPerLine
	BenchTransferBytes  = BenchTotalPoints * 12
	BenchUnitsPerPoint  = 9 // RK2: 2 samples x 3 components + 1 conversion x 3
	BenchTotalWorkUnits = BenchTotalPoints * BenchUnitsPerPoint
)

// Workload is a ready-to-run benchmark scenario.
type Workload struct {
	Sampler integrate.Sampler
	Seeds   []vmath.Vec3
	Options integrate.Options
	Time    float32
}

// BenchmarkWorkload builds the standard 100x200 scenario on the
// tapered cylinder: a velocity field with no interior stagnation or
// early domain exits, so every streamline really runs its full 200
// points (the accounting the paper's numbers assume).
func BenchmarkWorkload() (*Workload, error) {
	// A gentle swirling field on a Cartesian grid guarantees full-
	// length paths; the geometric content does not matter for the
	// performance benchmark, the memory-access pattern does, so grid
	// dimensions match the tapered cylinder dataset (64x64x32).
	g, err := grid.NewCartesian(64, 64, 32, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(63, 63, 31),
	})
	if err != nil {
		return nil, err
	}
	f := field.NewField(64, 64, 32, field.GridCoords)
	for k := 0; k < 32; k++ {
		for j := 0; j < 64; j++ {
			for i := 0; i < 64; i++ {
				// A bounded circulation around the domain center with
				// small spanwise drift: speed never vanishes and
				// trajectories orbit inside the box.
				dx := (float32(i) - 31.5) / 31.5
				dy := (float32(j) - 31.5) / 31.5
				f.SetAt(i, j, k, vmath.Vec3{
					X: -dy*0.08 + 0.01,
					Y: dx * 0.08,
					Z: 0.002,
				})
			}
		}
	}
	seeds := make([]vmath.Vec3, BenchStreamlines)
	for i := range seeds {
		frac := float32(i) / float32(BenchStreamlines)
		seeds[i] = vmath.V3(20+frac*24, 24+frac*16, 4+frac*20)
	}
	return &Workload{
		Sampler: compute.SteadyBatch{F: f, G: g},
		Seeds:   seeds,
		Options: integrate.Options{
			Method:   integrate.RK2,
			StepSize: 1,
			MaxSteps: BenchPointsPerLine - 1, // seed + 199 = 200 points
			MinSpeed: 1e-9,
		},
	}, nil
}

// Result is one engine's benchmark outcome.
type Result struct {
	Engine   string
	Stats    compute.Stats
	Modeled  time.Duration // on the given CostModel, 0 if none applied
	Points   int64
	Complete bool // every streamline reached full length
}

// RunBenchmark executes the workload on the engine and maps the work
// onto model (model.Workers of 0 skips modeling).
func RunBenchmark(e compute.Engine, w *Workload, model CostModel) Result {
	paths, stats := e.Streamlines(w.Sampler, w.Seeds, w.Time, w.Options)
	complete := true
	for _, p := range paths {
		if len(p) != w.Options.MaxSteps+1 {
			complete = false
			break
		}
	}
	return Result{
		Engine:   e.Name(),
		Stats:    stats,
		Modeled:  model.ModeledTime(stats),
		Points:   stats.Points + int64(len(paths)), // include seeds
		Complete: complete,
	}
}

// CostModel maps work-unit counts onto a 1992 machine. A "unit" is one
// component trilinear interpolation with its eight floating point
// loads, the quantity §5.3 counts (compute.UnitsPerPoint). Unit costs
// are calibrated from the paper's own benchmark (100 streamlines x 200
// points = 20,000 points; RK2 gives 9 units/point, so 180,000 units
// total):
//
//	Convex scalar, 4 procs:  0.24 s  => 0.24*4/180000  = 5333 ns/unit
//	Convex vector, 3 procs:  0.19 s  => 0.19*3/180000  = 3167 ns/unit
//	SGI 380GT,     8 procs:  0.135 s => 0.135*8/180000 = 6000 ns/unit
//
// With these three constants the model reproduces every derived number
// in Table 3 and the §5.3 discussion, including the awkward finding
// that vectorization barely paid off: the per-unit win (5333 -> 3167)
// is mostly eaten by dropping from 4 processors to 3.
type CostModel struct {
	// Name labels benchmark rows.
	Name string
	// UnitNanos is the cost of one work unit on one processor.
	UnitNanos float64
	// Workers is the processor count work spreads across.
	Workers int
}

// The paper's three machines/configurations.
var (
	// ConvexScalar4 is the Convex C3240 running the optimized scalar
	// code parallelized across its four processors.
	ConvexScalar4 = CostModel{Name: "convex-scalar-4", UnitNanos: 5333.3, Workers: 4}
	// ConvexVector3 is the Convex running the vectorized code, one
	// processor per velocity component.
	ConvexVector3 = CostModel{Name: "convex-vector-3", UnitNanos: 3166.7, Workers: 3}
	// SGI380GT8 is the stand-alone windtunnel's 8-processor SGI Iris
	// 380GT VGX.
	SGI380GT8 = CostModel{Name: "sgi-380gt-8", UnitNanos: 6000, Workers: 8}
	// ConvexHybrid4 models the optimization §5.3 proposes but never
	// built: vector-pipeline unit cost on all four processors
	// (parallel across streamline groups, vectorized within each).
	ConvexHybrid4 = CostModel{Name: "convex-hybrid-4", UnitNanos: 3166.7, Workers: 4}
)

// ModeledTime returns how long the work in stats would take on the
// modeled machine, assuming perfect distribution across its workers
// (the paper's streamline distribution is embarrassingly parallel and
// balanced).
func (m CostModel) ModeledTime(s compute.Stats) time.Duration {
	if m.Workers < 1 {
		return 0
	}
	ns := float64(s.Units()) / float64(m.Workers) * m.UnitNanos
	return time.Duration(ns)
}

// MaxParticlesAt returns the largest particle count sustainable at the
// given frame period, assuming performance scales linearly with
// particle count from a measured benchmark — Table 3's arithmetic:
// "assuming that the performance scales with the number of particles".
func MaxParticlesAt(benchTime time.Duration, benchParticles int, framePeriod time.Duration) int {
	if benchTime <= 0 {
		return 0
	}
	return int(float64(benchParticles) * float64(framePeriod) / float64(benchTime))
}

// framePeriod is the paper's 10 frames/second.
const framePeriod = time.Second / 10

// mbps formats bytes as the paper's MB/s (1 MB = 2^20 bytes, giving
// its 1.144/5.722).
func mbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.3f", bytesPerSec/(1<<20))
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// table1 reproduces "Table 1: Network constraints": bytes per frame at
// 12 bytes/point and the bandwidth required for 10 frames/second.
// The paper's first two rows follow bytes*10/2^20 exactly (1.144,
// 5.722); its third row prints 9.537 where that formula gives 11.444 —
// an arithmetic slip in the original (9.537 corresponds to 1,000,000
// bytes/frame, not the row's own 1,200,000). We print the consistent
// value and flag the discrepancy in EXPERIMENTS.md.
func table1() *table {
	t := &table{
		title:  "Table 1: Network constraints",
		note:   "12 bytes/point, 10 frames/second",
		header: []string{"# of particles", "# of bytes transferred", "required bandwidth (MB/s)"},
	}
	for _, n := range []int{10000, 50000, 100000} {
		bytes := n * wire.PointBytes
		t.addRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", bytes), mbps(float64(bytes)*10))
	}
	return t
}

// table2 reproduces "Table 2: Disk bandwidth constraints".
func table2() *table {
	t := &table{
		title:  "Table 2: Disk bandwidth constraints",
		note:   "12 bytes/point/timestep, 10 frames/second",
		header: []string{"# of points in grid", "# of bytes in a timestep", "# timesteps per GB", "required disk bandwidth (MB/s)"},
	}
	grids := []struct {
		points int
		label  string
	}{
		{131072, "131,072 (tapered cyl.)"},
		{436906, "436,906 (current max)"},
		{1000000, "1,000,000"},
		{3000000, "3,000,000"},
		{10000000, "10,000,000"},
	}
	const gb = 1 << 30
	for _, g := range grids {
		bytes := int64(g.points) * 12
		t.addRow(g.label, fmt.Sprintf("%d", bytes), fmt.Sprintf("%d", int64(gb)/bytes), mbps(float64(bytes)*10))
	}
	return t
}

// table3 reproduces "Table 3: Computational performance constraints":
// benchmark time to maximum particles at 10 fps, "assuming that the
// performance scales with the number of particles".
func table3() *table {
	t := &table{
		title:  "Table 3: Computational performance constraints",
		note:   "benchmark = 100 streamlines x 200 points (20,000 points)",
		header: []string{"Benchmark performance", "maximum # of particles", "# of streamlines w/ 200 particles"},
	}
	rows := []struct {
		bench time.Duration
		label string
	}{
		{250 * time.Millisecond, "0.25 seconds"},
		{190 * time.Millisecond, "0.19 seconds (current)"},
		{130 * time.Millisecond, "0.13 seconds (workstation)"},
		{100 * time.Millisecond, "0.10 seconds"},
		{50 * time.Millisecond, "0.05 seconds"},
	}
	for _, row := range rows {
		maxP := MaxParticlesAt(row.bench, BenchTotalPoints, framePeriod)
		t.addRow(row.label, fmt.Sprintf("%d", maxP), fmt.Sprintf("%d", maxP/200))
	}
	return t
}

// engineTable runs the §5.3 benchmark once per machine the paper
// measured or proposed, on the parallel engine at that machine's
// processor count, and prices the work with the machine's calibrated
// 1992 cost model. The shape requirement: sgi-8 < vector-3 < scalar-4,
// the paper's awkward finding that vectorization barely beat the
// scalar-parallel code.
func engineTable() (*table, error) {
	w, err := BenchmarkWorkload()
	if err != nil {
		return nil, err
	}
	t := &table{
		title:  "Sec 5.3 benchmark: 100 streamlines x 200 points",
		note:   "modeled = calibrated 1992 cost model, parallel engine at the row's worker count",
		header: []string{"engine", "workers", "modeled 1992 time", "max particles @10fps (modeled)"},
	}
	models := []CostModel{
		ConvexScalar4,
		ConvexVector3,
		SGI380GT8,
		// The paper's proposed-but-unbuilt optimization: groups of
		// streamlines across processors, vectorized within each group.
		ConvexHybrid4,
	}
	for _, m := range models {
		r := RunBenchmark(compute.Parallel{NumWorkers: m.Workers}, w, m)
		if !r.Complete {
			return nil, fmt.Errorf("engine %s terminated streamlines early", r.Engine)
		}
		t.addRow(m.Name, fmt.Sprintf("%d", m.Workers), r.Modeled.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", MaxParticlesAt(r.Modeled, BenchTotalPoints, framePeriod)))
	}
	return t, nil
}

// isoTable quantifies §1.2's tool-selection rule: "The flow
// visualization techniques that can be used in a virtual environment
// are limited to those that can be computed in the time allowed. For
// example, interactive streamlines ... can be used, but interactive
// isosurfaces ... can not." It prices one frame of each tool at the
// paper's own dataset scale — the 64x64x32 tapered cylinder grid — on
// the modeled 1992 Convex. (At laptop demo scales everything fits the
// budget; the exclusion only bites at production grid sizes, which is
// exactly the paper's point.)
func isoTable() (*table, error) {
	u, err := datasets.Analytic(datasets.Spec{NI: 64, NJ: 64, NK: 32, NumSteps: 1, DT: 0.6})
	if err != nil {
		return nil, err
	}
	g := u.Grid
	f := u.Steps[0]

	// Streamline frame: a typical 10-seed rake.
	rake, err := integrate.NewRake(1, vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), 10,
		integrate.ToolStreamline)
	if err != nil {
		return nil, err
	}
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.4, MaxSteps: 200, MinSpeed: 1e-7}
	model := ConvexVector3
	_, stats := compute.Parallel{NumWorkers: model.Workers}.Streamlines(
		compute.SteadyBatch{F: f, G: g}, rake.SeedsGrid(g), 0, o)
	streamModeled := model.ModeledTime(stats)

	// Isosurface frame: |u| surface bounding the wake deficit, at 60%
	// of max speed.
	speed := isosurf.SpeedField(f)
	iso := 0.6 * maxOf(speed)
	tris, err := isosurf.Extract(g, speed, iso)
	if err != nil {
		return nil, err
	}
	// Model the 1992 cost with the same unit framework: marching
	// tetrahedra touches every cell corner (8 loads/cell ~ one unit
	// per cell-corner-component read) plus interpolation per emitted
	// vertex; count cells x 8/3 units (8 corner reads per cell, one
	// unit = 3-component access) + 3 units per triangle vertex.
	cells := int64(g.NI-1) * int64(g.NJ-1) * int64(g.NK-1)
	isoUnits := cells*8/3 + int64(len(tris))*9
	isoModeled := model.ModeledTime(compute.Stats{SampleUnits: isoUnits})

	t := &table{
		title: "Sec 1.2: streamlines vs isosurface against the 1/8 s budget",
		note: fmt.Sprintf("one frame on the %dx%dx%d timestep; isosurface |u| = %.2f -> %d triangles",
			g.NI, g.NJ, g.NK, iso, len(tris)),
		header: []string{"tool", "modeled 1992", "fits 1/8 s (1992)?"},
	}
	const budget = time.Second / 8
	t.addRow("streamline rake (10 x 200)", streamModeled.Round(time.Millisecond).String(),
		yesNo(streamModeled <= budget))
	t.addRow("isosurface (marching tetrahedra)", isoModeled.Round(time.Millisecond).String(),
		yesNo(isoModeled <= budget))
	return t, nil
}

// maxOf returns the largest value in s, or 0.
func maxOf(s []float32) float32 {
	var m float32
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}
