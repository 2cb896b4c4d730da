package main

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/datasets"
	"repro/internal/integrate"
	"repro/internal/isosurf"
	"repro/internal/vmath"
	"repro/internal/wire"
)

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
		maxP := compute.MaxParticlesAt(row.bench, compute.BenchTotalPoints, framePeriod)
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
	w, err := compute.BenchmarkWorkload()
	if err != nil {
		return nil, err
	}
	t := &table{
		title:  "Sec 5.3 benchmark: 100 streamlines x 200 points",
		note:   "modeled = calibrated 1992 cost model, parallel engine at the row's worker count",
		header: []string{"engine", "workers", "modeled 1992 time", "max particles @10fps (modeled)"},
	}
	models := []compute.CostModel{
		compute.ConvexScalar4,
		compute.ConvexVector3,
		compute.SGI380GT8,
		// The paper's proposed-but-unbuilt optimization: groups of
		// streamlines across processors, vectorized within each group.
		compute.ConvexHybrid4,
	}
	for _, m := range models {
		r := compute.RunBenchmark(compute.Parallel{NumWorkers: m.Workers}, w, m)
		if !r.Complete {
			return nil, fmt.Errorf("engine %s terminated streamlines early", r.Engine)
		}
		t.addRow(m.Name, fmt.Sprintf("%d", m.Workers), r.Modeled.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", compute.MaxParticlesAt(r.Modeled, compute.BenchTotalPoints, framePeriod)))
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
	model := compute.ConvexVector3
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
