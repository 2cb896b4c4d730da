package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/compute"
	"repro/internal/field"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/isosurf"
	"repro/internal/render"
	"repro/internal/vmath"
)

// DatasetSpec sizes the synthetic tapered-cylinder dataset used by the
// figures.
type DatasetSpec struct {
	NI, NJ, NK int
	NumSteps   int
	DT         float32
}

// DefaultDatasetSpec is laptop-sized: big enough for recognizable
// shedding structure, small enough to build in seconds.
func DefaultDatasetSpec() DatasetSpec {
	return DatasetSpec{NI: 32, NJ: 48, NK: 12, NumSteps: 24, DT: 0.6}
}

// BuildDataset synthesizes the tapered-cylinder dataset in grid
// coordinates: the O-grid of Jespersen-Levit geometry with the
// analytic shedding flow sampled onto it.
func BuildDataset(spec DatasetSpec) (*field.Unsteady, error) {
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: spec.NI, NJ: spec.NJ, NK: spec.NK,
		R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	if err != nil {
		return nil, err
	}
	phys, err := flow.SampleUnsteady(flow.DefaultTaperedCylinder(), g, spec.NumSteps, 0, spec.DT)
	if err != nil {
		return nil, err
	}
	return phys.ToGridCoords()
}

// figureCamera looks at the cylinder wake from above and upstream.
func figureCamera() vmath.Mat4 {
	// Head matrix: positioned up and back, looking toward the wake
	// center. LookAt gives a view matrix; the head is its inverse.
	view := vmath.LookAt(vmath.V3(-6, 14, 24), vmath.V3(4, 0, 8), vmath.V3(0, 1, 0))
	head, _ := view.Inverted()
	return head
}

// FigureResult reports what a figure run produced.
type FigureResult struct {
	Path      string
	LitPixels int
	Lines     int
	Points    int
}

// wakeRake returns a rake crossing the near-wake region, seeds along
// the span, slightly off-axis so streamlines wrap the cylinder.
func wakeRake(numSeeds int) *integrate.Rake {
	r, _ := integrate.NewRake(1,
		vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), numSeeds, integrate.ToolStreakline)
	return r
}

// renderLines draws polylines (physical coordinates) into a stereo
// anaglyph PPM at outPath.
func renderLines(lines [][]vmath.Vec3, smoke bool, outPath string) (FigureResult, error) {
	fb, err := render.NewFramebuffer(640, 512)
	if err != nil {
		return FigureResult{}, err
	}
	rig := render.StereoRig{IPD: 0.5, Proj: vmath.Perspective(1.0, 640.0/512.0, 0.1, 200)}
	scene := render.LineScene(lines)
	if smoke {
		scene = render.SmokeScene(lines, 70)
	}
	if err := rig.RenderAnaglyph(fb, figureCamera(), scene); err != nil {
		return FigureResult{}, err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return FigureResult{}, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return FigureResult{}, err
	}
	if err := fb.WritePPM(f); err != nil {
		f.Close()
		return FigureResult{}, err
	}
	if err := f.Close(); err != nil {
		return FigureResult{}, err
	}
	var points int
	for _, l := range lines {
		points += len(l)
	}
	return FigureResult{
		Path:      outPath,
		LitPixels: fb.CountLit(5),
		Lines:     len(lines),
		Points:    points,
	}, nil
}

// Figure1 regenerates figure 1: streaklines of the flow around the
// tapered cylinder rendered as smoke. Smoke is advected over many
// frames of playback before the snapshot.
func Figure1(u *field.Unsteady, outPath string) (FigureResult, error) {
	rake := wakeRake(10)
	seeds := rake.SeedsGrid(u.Grid)
	if len(seeds) == 0 {
		return FigureResult{}, fmt.Errorf("bench: figure 1 rake has no in-grid seeds")
	}
	streak := integrate.NewStreak(40000)
	frames := 3 * u.NumSteps()
	for f := 0; f < frames; f++ {
		step := f % u.NumSteps()
		sampler := compute.SteadyBatch{F: u.Steps[step], G: u.Grid}
		streak.Advance(sampler, seeds, float32(step), 0.5, integrate.RK2)
	}
	lines := streak.PolylineBySeed(len(seeds))
	physLines := make([][]vmath.Vec3, len(lines))
	for i, l := range lines {
		physLines[i] = integrate.ToPhysical(u.Grid, l)
	}
	return renderLines(physLines, true, outPath)
}

// streamlineLines computes the figure 2/3 streamline set at a given
// timestep.
func streamlineLines(u *field.Unsteady, step int) [][]vmath.Vec3 {
	rake := wakeRake(12)
	seeds := rake.SeedsGrid(u.Grid)
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.4, MaxSteps: 300, MinSpeed: 1e-7}
	paths, _ := compute.Parallel{}.Streamlines(
		compute.SteadyBatch{F: u.Step(step), G: u.Grid}, seeds, float32(step), o)
	out := make([][]vmath.Vec3, 0, len(paths))
	for _, p := range paths {
		if len(p) >= 2 {
			out = append(out, p)
		}
	}
	return out
}

// Figure2 regenerates figure 2: streamlines at an early timestep.
func Figure2(u *field.Unsteady, outPath string) (FigureResult, error) {
	return renderLines(streamlineLines(u, 0), false, outPath)
}

// Figure3 regenerates figure 3: streamlines "from the same seedpoints
// as in figure 2, but at a later time". It also returns the mean
// pointwise divergence between the two path sets — the unsteadiness
// the figure pair demonstrates.
func Figure3(u *field.Unsteady, outPath string) (FigureResult, float64, error) {
	early := streamlineLines(u, 0)
	lateStep := u.NumSteps() / 2
	late := streamlineLines(u, lateStep)
	res, err := renderLines(late, false, outPath)
	if err != nil {
		return FigureResult{}, 0, err
	}
	return res, meanPathDivergence(early, late), nil
}

// meanPathDivergence averages the distance between corresponding
// points of corresponding paths.
func meanPathDivergence(a, b [][]vmath.Vec3) float64 {
	var sum float64
	var n int
	lines := len(a)
	if len(b) < lines {
		lines = len(b)
	}
	for i := 0; i < lines; i++ {
		pts := len(a[i])
		if len(b[i]) < pts {
			pts = len(b[i])
		}
		for p := 0; p < pts; p++ {
			sum += float64(a[i][p].Dist(b[i][p]))
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// FigureIsosurface is not a paper figure — it renders the offline
// isosurface tool's output (wireframe |u| surface over the tapered
// cylinder) as a bonus image, since the paper could only describe why
// such surfaces were excluded from the interactive toolset.
func FigureIsosurface(u *field.Unsteady, outPath string) (FigureResult, error) {
	speed := isosurf.SpeedField(u.Steps[0])
	// Pick an iso value bracketing the wake: 40% of max speed.
	var maxSpeed float32
	for _, s := range speed {
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	tris, err := isosurf.Extract(u.Grid, speed, 0.4*maxSpeed)
	if err != nil {
		return FigureResult{}, err
	}
	lines := make([][]vmath.Vec3, 0, len(tris))
	for _, t := range tris {
		lines = append(lines, []vmath.Vec3{t[0], t[1], t[2], t[0]})
	}
	return renderLines(lines, false, outPath)
}
