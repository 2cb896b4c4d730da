package render

import (
	"runtime"

	"repro/internal/vmath"
)

// StereoRig renders a scene twice for the BOOM's two monochrome CRTs,
// using §3's scheme exactly: "rendering the left eye image using only
// shades of pure red ... and the right eye image using only shades of
// pure blue. When the blue (second, right-eye) image is drawn, it is
// drawn using a 'writemask' that protects the bits of the red image.
// The Z-buffer bit planes are cleared between the drawing of the left-
// and right-eye images, but the color (red) bit planes are not."
type StereoRig struct {
	// IPD is the interpupillary distance in world units.
	IPD float32
	// Proj is the shared projection (the BOOM's wide-field LEEP
	// optics).
	Proj vmath.Mat4
	// List is the display list frames are drawn through. A rig that
	// draws frame after frame sets one, so its buffers are reused; nil
	// draws each frame through a list of its own.
	List *DisplayList
}

// Scene is a draw callback: it receives a renderer and issues
// Polyline/Line/Triangles calls. The left eye draws a color's red
// byte, the right eye its blue byte.
//
// RenderAnaglyph calls it once per frame and records what it draws;
// both eyes and every row band are drawn from the recording. The
// slices it hands to Polyline and Triangles are read until
// RenderAnaglyph returns and must not change before then.
type Scene func(r *Renderer)

// RenderAnaglyph draws the scene from both eyes of the head pose into
// fb. The left eye lands in the red planes, the right eye in the blue
// planes; where the images overlap, both survive — "the end result is
// separately Z-buffered left- and right-eye images, in red and blue
// respectively, on the screen at the same time".
//
// The framebuffer is split into two bands of rows, each drawn by its
// own goroutine (one band when there is one processor to run them). A
// band's bytes are written by nobody else and see the writes a single
// renderer would make, in the same order, so the frame is the same
// bytes however the bands are scheduled.
func (s StereoRig) RenderAnaglyph(fb *Framebuffer, head vmath.Mat4, scene Scene) error {
	return s.renderBands(fb, head, scene, min(2, runtime.GOMAXPROCS(0)))
}

func (s StereoRig) renderBands(fb *Framebuffer, head vmath.Mat4, scene Scene, bands int) error {
	leftView, rightView, err := eyeViews(head, s.IPD)
	if err != nil {
		fb.Clear(0, 0, 0)
		return err
	}
	dl := s.List
	if dl == nil {
		dl = new(DisplayList)
	}
	defer dl.reset()
	dl.record(fb, scene)
	// Left eye pure red; right eye blue under a writemask that protects
	// the red planes.
	eyes := [2]eye{{s.Proj.Mul(leftView), maskR}, {s.Proj.Mul(rightView), maskB}}
	dl.draw(fb, &eyes, bands)
	return nil
}

// eyeViews derives per-eye view matrices from a head matrix: each eye
// sits half the IPD along the head's local X axis.
func eyeViews(head vmath.Mat4, ipd float32) (left, right vmath.Mat4, err error) {
	half := ipd / 2
	leftHead := head.Mul(vmath.Translate(-half, 0, 0))
	rightHead := head.Mul(vmath.Translate(half, 0, 0))
	l, ok := leftHead.Inverted()
	if !ok {
		return vmath.Mat4{}, vmath.Mat4{}, errSingularHead
	}
	r, ok := rightHead.Inverted()
	if !ok {
		return vmath.Mat4{}, vmath.Mat4{}, errSingularHead
	}
	return l, r, nil
}

var errSingularHead = errorString("render: singular head matrix")

// errorString is a tiny allocation-free error type.
type errorString string

func (e errorString) Error() string { return string(e) }

// SmokeScene builds a Scene that draws streakline filaments as smoke:
// additive faint lines so overlapping filaments brighten, the visual
// the paper's figure 1 shows.
func SmokeScene(lines [][]vmath.Vec3, intensity uint8) Scene {
	return func(r *Renderer) {
		prevAdd := r.Additive
		r.Additive = true
		c := Color{R: intensity, G: intensity, B: intensity}
		for _, line := range lines {
			r.Polyline(line, c)
		}
		r.Additive = prevAdd
	}
}

// LineScene builds a Scene drawing each polyline at full intensity —
// streamlines and particle paths (figures 2 and 3).
func LineScene(lines [][]vmath.Vec3) Scene {
	return func(r *Renderer) {
		c := Color{R: 255, G: 255, B: 255}
		for _, line := range lines {
			r.Polyline(line, c)
		}
	}
}
