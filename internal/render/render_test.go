package render

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/vmath"
)

// camera is a perspective eye at z = 5 looking at the origin.
func camera() vmath.Mat4 {
	view := vmath.LookAt(vmath.V3(0, 0, 5), vmath.V3(0, 0, 0), vmath.V3(0, 1, 0))
	return vmath.Perspective(math.Pi/3, 1, 0.1, 100).Mul(view)
}

// at returns the pixel color at (x, y).
func at(fb *Framebuffer, x, y int) Color {
	pi := (y*fb.W + x) * 3
	return Color{fb.Pix[pi], fb.Pix[pi+1], fb.Pix[pi+2]}
}

// dot draws p as a zero-length segment: the one pixel it projects to.
func dot(r *Renderer, p vmath.Vec3, c Color) { r.Line(p, p, c) }

func TestNewFramebufferValidation(t *testing.T) {
	if _, err := NewFramebuffer(0, 10); err == nil {
		t.Error("zero width accepted")
	}
	fb, err := NewFramebuffer(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Pix) != 4*3*3 || len(fb.Z) != 12 {
		t.Error("buffer sizes wrong")
	}
}

func TestClearAndAt(t *testing.T) {
	fb, _ := NewFramebuffer(8, 8)
	fb.Clear(10, 20, 30)
	if got := at(fb, 3, 4); got != (Color{10, 20, 30}) {
		t.Errorf("at = %+v", got)
	}
}

func TestPointProjectsToCenter(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	dot(&r, vmath.V3(0, 0, 0), Color{255, 255, 255})
	// Truncation; accept the 3x3 neighborhood of the center.
	lit := false
	for y := 30; y <= 32; y++ {
		for x := 30; x <= 32; x++ {
			if at(fb, x, y).R == 255 {
				lit = true
			}
		}
	}
	if !lit {
		t.Errorf("origin did not land near screen center; center=%+v", at(fb, 31, 31))
	}
}

func TestPointBehindCameraCulled(t *testing.T) {
	fb, _ := NewFramebuffer(32, 32)
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	dot(&r, vmath.V3(0, 0, 50), Color{255, 255, 255}) // behind eye at z=5
	if fb.CountLit(0) != 0 {
		t.Error("point behind camera rasterized")
	}
}

func TestLineDrawsContinuousRun(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	r.Line(vmath.V3(-1, 0, 0), vmath.V3(1, 0, 0), Color{255, 0, 0})
	// A horizontal line through the middle: count lit pixels on the
	// middle rows.
	var lit int
	for y := 29; y <= 33; y++ {
		for x := 0; x < 64; x++ {
			if at(fb, x, y).R > 0 {
				lit++
			}
		}
	}
	if lit < 15 {
		t.Errorf("horizontal line lit only %d pixels", lit)
	}
}

func TestLineClippedAtNearPlane(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	// One endpoint far behind the camera: must not panic and must
	// still draw the visible part.
	r.Line(vmath.V3(0, 0, 0), vmath.V3(0, 0, 100), Color{255, 255, 255})
	if fb.CountLit(0) == 0 {
		t.Error("fully clipped a partially visible line")
	}
	// Both endpoints behind: nothing.
	fb.Clear(0, 0, 0)
	r.Line(vmath.V3(0, 0, 50), vmath.V3(0, 0, 100), Color{255, 255, 255})
	if fb.CountLit(0) != 0 {
		t.Error("line behind camera rasterized")
	}
}

func TestZBufferOcclusion(t *testing.T) {
	fb, _ := NewFramebuffer(32, 32)
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	// Near point drawn first, far point after: far must lose.
	dot(&r, vmath.V3(0, 0, 1), Color{255, 0, 0})
	dot(&r, vmath.V3(0, 0, -1), Color{100, 0, 0})
	var near, far int
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			switch at(fb, x, y).R {
			case 255:
				near++
			case 100:
				far++
			}
		}
	}
	if near == 0 {
		t.Error("near point missing")
	}
	if far != 0 {
		t.Error("far point overwrote near point")
	}
}

// TestWritemaskProtectsChannels: the right eye's blue, drawn under the
// writemask over the left eye's red, never changes a red byte. The red
// planes of the anaglyph are the left eye drawn alone.
func TestWritemaskProtectsChannels(t *testing.T) {
	rig := StereoRig{IPD: 0.3, Proj: vmath.Perspective(math.Pi/3, 1, 0.1, 100)}
	head := vmath.Translate(0, 0, 5)
	lines := [][]vmath.Vec3{
		{vmath.V3(-1, 0, 0), vmath.V3(1, 0, 0)},
		{vmath.V3(0, -1, -1), vmath.V3(0, 1, 1)},
		{vmath.V3(-1, -1, 0.5), vmath.V3(1, 1, -0.5)},
	}
	scene := SmokeScene(lines, 150)
	fb, _ := NewFramebuffer(48, 48)
	if err := rig.RenderAnaglyph(fb, head, scene); err != nil {
		t.Fatal(err)
	}
	left, _, err := eyeViews(head, rig.IPD)
	if err != nil {
		t.Fatal(err)
	}
	alone, _ := NewFramebuffer(48, 48)
	scene(&Renderer{FB: alone, y1: alone.H, mask: maskR, mvp: rig.Proj.Mul(left)})
	var both int
	for i := 0; i < len(fb.Pix); i += 3 {
		if fb.Pix[i] != alone.Pix[i] {
			t.Fatalf("red byte of pixel %d is %d, the left eye alone drew %d", i/3, fb.Pix[i], alone.Pix[i])
		}
		if fb.Pix[i+1] != 0 {
			t.Fatalf("green byte of pixel %d lit", i/3)
		}
		if fb.Pix[i] > 0 && fb.Pix[i+2] > 0 {
			both++
		}
	}
	if both == 0 {
		t.Error("no pixel holds both eyes: the writemask was not exercised")
	}
}

func TestAdditiveBlendSaturates(t *testing.T) {
	fb, _ := NewFramebuffer(8, 8)
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: vmath.Identity(), Additive: true}
	for i := 0; i < 5; i++ {
		fb.clearZRows(0, fb.H)
		dot(&r, vmath.V3(0, 0, 0), Color{100, 0, 0})
	}
	if c := at(fb, 3, 3); c.R != 255 {
		t.Errorf("additive saturation: R = %d, want 255", c.R)
	}
}

func TestStereoAnaglyphChannels(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	rig := StereoRig{IPD: 0.5, Proj: vmath.Perspective(math.Pi/3, 1, 0.1, 100)}
	head := vmath.Translate(0, 0, 5) // looking down -Z at the origin
	line := []vmath.Vec3{vmath.V3(-1, 0, 0), vmath.V3(1, 0, 0)}
	if err := rig.RenderAnaglyph(fb, head, LineScene([][]vmath.Vec3{line})); err != nil {
		t.Fatal(err)
	}
	var redOnly, blueOnly, both int
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			c := at(fb, x, y)
			switch {
			case c.R > 0 && c.B > 0:
				both++
			case c.R > 0:
				redOnly++
			case c.B > 0:
				blueOnly++
			}
			if c.G > 0 {
				t.Fatal("green channel lit in anaglyph")
			}
		}
	}
	// Parallax: with a large IPD the two images are offset, so some
	// pixels are red-only and some blue-only; the overlap keeps both.
	if redOnly == 0 || blueOnly == 0 {
		t.Errorf("no parallax: redOnly=%d blueOnly=%d both=%d", redOnly, blueOnly, both)
	}
	if both == 0 {
		t.Errorf("no overlap: blue pass erased red planes (writemask broken)")
	}
}

func TestSmokeSceneAccumulates(t *testing.T) {
	fb, _ := NewFramebuffer(32, 32)
	r := &Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	// Two identical faint filaments: additive blending doubles the
	// intensity where they overlap.
	line := []vmath.Vec3{vmath.V3(-1, 0, 0), vmath.V3(1, 0, 0)}
	scene := SmokeScene([][]vmath.Vec3{line, line}, 60)
	// Z-test would reject the second identical line; smoke draws with
	// z cleared between filaments in practice — here just clear once
	// and rely on equal depth passing (z <= test).
	scene(r)
	var maxR uint8
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if c := at(fb, x, y); c.R > maxR {
				maxR = c.R
			}
		}
	}
	if maxR < 120 {
		t.Errorf("smoke did not accumulate: max R = %d, want >= 120", maxR)
	}
}

func TestWritePPM(t *testing.T) {
	fb, _ := NewFramebuffer(4, 2)
	fb.Clear(1, 2, 3)
	var buf bytes.Buffer
	if err := fb.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P6\n4 2\n255\n") {
		t.Errorf("ppm header: %q", s[:20])
	}
	if buf.Len() != len("P6\n4 2\n255\n")+4*2*3 {
		t.Errorf("ppm size = %d", buf.Len())
	}
}

func BenchmarkPolyline200(b *testing.B) {
	fb, _ := NewFramebuffer(1280, 1024) // the VGX's 1024x1280 video
	r := Renderer{FB: fb, y1: fb.H, mask: maskR, mvp: camera()}
	pts := make([]vmath.Vec3, 200)
	for i := range pts {
		f := float32(i) / 199
		pts[i] = vmath.V3(-1+2*f, 0.5*float32(math.Sin(float64(f)*6)), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Polyline(pts, Color{255, 0, 0})
	}
}
