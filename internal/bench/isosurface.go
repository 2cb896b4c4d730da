package bench

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/integrate"
	"repro/internal/isosurf"
	"repro/internal/vmath"
)

// AblationIsosurface quantifies §1.2's tool-selection rule: "The flow
// visualization techniques that can be used in a virtual environment
// are limited to those that can be computed in the time allowed. For
// example, interactive streamlines ... can be used, but interactive
// isosurfaces ... can not." It times one frame of each tool at the
// paper's own dataset scale — the 64x64x32 tapered cylinder grid —
// on this host and on the modeled 1992 Convex. (At laptop demo scales
// everything fits the budget; the exclusion only bites at production
// grid sizes, which is exactly the paper's point.)
func AblationIsosurface() (*Table, error) {
	u, err := BuildDataset(DatasetSpec{NI: 64, NJ: 64, NK: 32, NumSteps: 1, DT: 0.6})
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
	seeds := rake.SeedsGrid(g)
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.4, MaxSteps: 200, MinSpeed: 1e-7}
	model := compute.ConvexVector3
	start := time.Now()
	_, stats := compute.Parallel{NumWorkers: model.Workers}.Streamlines(compute.SteadyBatch{F: f, G: g}, seeds, 0, o)
	streamWall := time.Since(start)
	streamModeled := model.ModeledTime(stats)

	// Isosurface frame: |u| surface bounding the wake deficit.
	speed := isosurf.SpeedField(f)
	// Pick an iso value inside the field's range: 60% of max speed.
	var maxSpeed float32
	for _, s := range speed {
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	iso := 0.6 * maxSpeed
	start = time.Now()
	tris, err := isosurf.Extract(g, speed, iso)
	if err != nil {
		return nil, err
	}
	isoWall := time.Since(start)
	// Model the 1992 cost with the same unit framework: marching
	// tetrahedra touches every cell corner (8 loads/cell ~ one unit
	// per cell-corner-component read) plus interpolation per emitted
	// vertex; count cells x 8/3 units (8 corner reads per cell, one
	// unit = 3-component access) + 3 units per triangle vertex.
	cells := int64(g.NI-1) * int64(g.NJ-1) * int64(g.NK-1)
	isoUnits := cells*8/3 + int64(len(tris))*9
	isoModeled := model.ModeledTime(compute.Stats{SampleUnits: isoUnits})

	t := &Table{
		Title: "Ablation: streamlines vs isosurface against the 1/8 s budget (Sec 1.2)",
		Note: fmt.Sprintf("one frame on the %dx%dx%d timestep; isosurface |u| = %.2f -> %d triangles",
			g.NI, g.NJ, g.NK, iso, len(tris)),
		Header: []string{"tool", "wall (this host)", "modeled 1992", "fits 1/8 s (1992)?"},
	}
	budget := time.Second / 8
	t.AddRow("streamline rake (10 x 200)",
		streamWall.Round(10*time.Microsecond).String(),
		streamModeled.Round(time.Millisecond).String(),
		yesNo(streamModeled <= budget))
	t.AddRow("isosurface (marching tetrahedra)",
		isoWall.Round(10*time.Microsecond).String(),
		isoModeled.Round(time.Millisecond).String(),
		yesNo(isoModeled <= budget))
	return t, nil
}
