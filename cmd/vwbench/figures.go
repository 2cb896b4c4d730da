package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/compute"
	"repro/internal/datasets"
	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/isosurf"
	"repro/internal/render"
	"repro/internal/vmath"
)

// figureSpec is laptop-sized: big enough for recognizable shedding
// structure, small enough to build in seconds.
var figureSpec = datasets.Spec{NI: 32, NJ: 48, NK: 12, NumSteps: 24, DT: 0.6}

// figureFiles names figures 1-4 as checked in under figures/.
var figureFiles = [4]string{
	"fig1_streaklines.ppm",
	"fig2_streamlines_t0.ppm",
	"fig3_streamlines_t1.ppm",
	"fig4_isosurface_bonus.ppm",
}

// writeFigures renders figures 1-4 of the figureSpec dataset into dir
// and captions each on out.
func writeFigures(out io.Writer, dir string) error {
	u, err := datasets.Analytic(figureSpec)
	if err != nil {
		return err
	}
	path := func(n int) string { return filepath.Join(dir, figureFiles[n-1]) }
	f1, err := figure1(u, path(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfigure 1 (streaklines as smoke): %s\n  %d filaments, %d particles, %d lit pixels\n",
		figureFiles[0], f1.lines, f1.points, f1.lit)
	f2, err := figure2(u, path(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfigure 2 (streamlines, early time): %s\n  %d streamlines, %d points, %d lit pixels\n",
		figureFiles[1], f2.lines, f2.points, f2.lit)
	f3, div, err := figure3(u, path(3))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfigure 3 (same seeds, later time): %s\n  %d streamlines, %d points, %d lit pixels\n",
		figureFiles[2], f3.lines, f3.points, f3.lit)
	fmt.Fprintf(out, "  mean path divergence vs figure 2: %.3f units (unsteadiness)\n", div)
	f4, err := figure4(u, path(4))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "\nbonus figure (offline isosurface tool): %s\n  %d triangles, %d lit pixels\n",
		figureFiles[3], f4.lines, f4.lit)
	return err
}

// figureResult reports what a figure drew.
type figureResult struct {
	lit    int
	lines  int
	points int
}

// figureCamera looks at the cylinder wake from above and upstream.
func figureCamera() vmath.Mat4 {
	// Head matrix: positioned up and back, looking toward the wake
	// center. LookAt gives a view matrix; the head is its inverse.
	view := vmath.LookAt(vmath.V3(-6, 14, 24), vmath.V3(4, 0, 8), vmath.V3(0, 1, 0))
	head, _ := view.Inverted()
	return head
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
func renderLines(lines [][]vmath.Vec3, smoke bool, outPath string) (figureResult, error) {
	fb, err := render.NewFramebuffer(640, 512)
	if err != nil {
		return figureResult{}, err
	}
	rig := render.StereoRig{IPD: 0.5, Proj: vmath.Perspective(1.0, 640.0/512.0, 0.1, 200)}
	scene := render.LineScene(lines)
	if smoke {
		scene = render.SmokeScene(lines, 70)
	}
	if err := rig.RenderAnaglyph(fb, figureCamera(), scene); err != nil {
		return figureResult{}, err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return figureResult{}, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return figureResult{}, err
	}
	if err := fb.WritePPM(f); err != nil {
		f.Close()
		return figureResult{}, err
	}
	if err := f.Close(); err != nil {
		return figureResult{}, err
	}
	var points int
	for _, l := range lines {
		points += len(l)
	}
	return figureResult{lit: fb.CountLit(5), lines: len(lines), points: points}, nil
}

// figure1 regenerates figure 1: streaklines of the flow around the
// tapered cylinder rendered as smoke. Smoke is advected over many
// frames of playback before the snapshot.
func figure1(u *field.Unsteady, outPath string) (figureResult, error) {
	seeds := wakeRake(10).SeedsGrid(u.Grid)
	if len(seeds) == 0 {
		return figureResult{}, fmt.Errorf("figure 1 rake has no in-grid seeds")
	}
	streak := integrate.NewStreak(40000)
	for f := 0; f < 3*u.NumSteps(); f++ {
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
	seeds := wakeRake(12).SeedsGrid(u.Grid)
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

// figure2 regenerates figure 2: streamlines at an early timestep.
func figure2(u *field.Unsteady, outPath string) (figureResult, error) {
	return renderLines(streamlineLines(u, 0), false, outPath)
}

// figure3 regenerates figure 3: streamlines "from the same seedpoints
// as in figure 2, but at a later time". It also returns the mean
// pointwise divergence between the two path sets — the unsteadiness
// the figure pair demonstrates.
func figure3(u *field.Unsteady, outPath string) (figureResult, float64, error) {
	early := streamlineLines(u, 0)
	late := streamlineLines(u, u.NumSteps()/2)
	res, err := renderLines(late, false, outPath)
	if err != nil {
		return figureResult{}, 0, err
	}
	return res, meanPathDivergence(early, late), nil
}

// meanPathDivergence averages the distance between corresponding
// points of corresponding paths.
func meanPathDivergence(a, b [][]vmath.Vec3) float64 {
	var sum float64
	var n int
	for i := 0; i < min(len(a), len(b)); i++ {
		for p := 0; p < min(len(a[i]), len(b[i])); p++ {
			sum += float64(a[i][p].Dist(b[i][p]))
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// figure4 is not a paper figure — it renders the offline isosurface
// tool's output (wireframe |u| surface over the tapered cylinder) as a
// bonus image, since the paper could only describe why such surfaces
// were excluded from the interactive toolset.
func figure4(u *field.Unsteady, outPath string) (figureResult, error) {
	speed := isosurf.SpeedField(u.Steps[0])
	// An iso value bracketing the wake: 40% of max speed.
	tris, err := isosurf.Extract(u.Grid, speed, 0.4*maxOf(speed))
	if err != nil {
		return figureResult{}, err
	}
	lines := make([][]vmath.Vec3, 0, len(tris))
	for _, t := range tris {
		lines = append(lines, []vmath.Vec3{t[0], t[1], t[2], t[0]})
	}
	return renderLines(lines, false, outPath)
}
