package compute

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
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
		Sampler: SteadyBatch{F: f, G: g},
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
	Workers  int
	Stats    Stats
	Modeled  time.Duration // on the given CostModel, 0 if none applied
	Model    string
	Points   int64
	Complete bool // every streamline reached full length
}

// RunBenchmark executes the workload on the engine and maps the work
// onto model (model.Workers of 0 skips modeling).
func RunBenchmark(e Engine, w *Workload, model CostModel) Result {
	paths, stats := e.Streamlines(w.Sampler, w.Seeds, w.Time, w.Options)
	complete := true
	for _, p := range paths {
		if len(p) != w.Options.MaxSteps+1 {
			complete = false
			break
		}
	}
	r := Result{
		Engine:   e.Name(),
		Workers:  e.Workers(),
		Stats:    stats,
		Points:   stats.Points + int64(len(paths)), // include seeds
		Complete: complete,
	}
	if model.Workers > 0 {
		r.Modeled = model.ModeledTime(stats)
		r.Model = model.Name
	}
	return r
}

// String formats a result row.
func (r Result) String() string {
	s := fmt.Sprintf("%-16s workers=%d points=%d units=%d",
		r.Engine, r.Workers, r.Points, r.Stats.Units())
	if r.Model != "" {
		s += fmt.Sprintf(" modeled(%s)=%v", r.Model, r.Modeled)
	}
	return s
}
