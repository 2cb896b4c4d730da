package render

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/vmath"
)

func camera() (view, proj vmath.Mat4) {
	view = vmath.LookAt(vmath.V3(0, 0, 5), vmath.V3(0, 0, 0), vmath.V3(0, 1, 0))
	proj = vmath.Perspective(math.Pi/3, 1, 0.1, 100)
	return
}

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
	if got := fb.At(3, 4); got != (Color{10, 20, 30}) {
		t.Errorf("At = %+v", got)
	}
}

func TestPointProjectsToCenter(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRenderer(fb)
	r.SetCamera(camera())
	r.Point(vmath.V3(0, 0, 0), Color{255, 255, 255})
	c := fb.At(31, 31)
	// toScreen rounds; accept the 2x2 neighborhood of the center.
	lit := false
	for y := 30; y <= 32; y++ {
		for x := 30; x <= 32; x++ {
			if fb.At(x, y).R == 255 {
				lit = true
			}
		}
	}
	if !lit {
		t.Errorf("origin did not land near screen center; center=%+v", c)
	}
}

func TestPointBehindCameraCulled(t *testing.T) {
	fb, _ := NewFramebuffer(32, 32)
	r := NewRenderer(fb)
	r.SetCamera(camera())
	r.Point(vmath.V3(0, 0, 50), Color{255, 255, 255}) // behind eye at z=5
	if fb.CountLit(0) != 0 {
		t.Error("point behind camera rasterized")
	}
}

func TestLineDrawsContinuousRun(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRenderer(fb)
	r.SetCamera(camera())
	r.Line(vmath.V3(-1, 0, 0), vmath.V3(1, 0, 0), Color{255, 0, 0})
	// A horizontal line through the middle: count lit pixels on the
	// middle rows.
	var lit int
	for y := 29; y <= 33; y++ {
		for x := 0; x < 64; x++ {
			if fb.At(x, y).R > 0 {
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
	r := NewRenderer(fb)
	r.SetCamera(camera())
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
	r := NewRenderer(fb)
	r.SetCamera(camera())
	// Near point drawn first, far point after: far must lose.
	r.Point(vmath.V3(0, 0, 1), Color{255, 0, 0})
	r.Point(vmath.V3(0, 0, -1), Color{0, 255, 0})
	var reds, greens int
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			c := fb.At(x, y)
			if c.R == 255 {
				reds++
			}
			if c.G == 255 {
				greens++
			}
		}
	}
	if reds == 0 {
		t.Error("near point missing")
	}
	if greens != 0 {
		t.Error("far point overwrote near point")
	}
}

func TestWritemaskProtectsChannels(t *testing.T) {
	fb, _ := NewFramebuffer(16, 16)
	r := NewRenderer(fb)
	// Identity transform: NDC coordinates map directly.
	r.SetMask(MaskR)
	r.Point(vmath.V3(0, 0, 0), Color{200, 200, 200})
	r.SetMask(MaskB)
	fb.ClearZ()
	r.Point(vmath.V3(0, 0, 0), Color{150, 150, 150})
	c := fb.At(7, 7)
	// toScreenF maps (0,0) to ((0+1)/2*15, (1-0)/2*15) = (7.5, 7.5) -> 7.
	if c.R != 200 || c.B != 150 || c.G != 0 {
		t.Errorf("masked draws produced %+v, want R=200 G=0 B=150", c)
	}
}

func TestAdditiveBlendSaturates(t *testing.T) {
	fb, _ := NewFramebuffer(8, 8)
	r := NewRenderer(fb)
	r.Additive = true
	for i := 0; i < 5; i++ {
		fb.ClearZ()
		r.Point(vmath.V3(0, 0, 0), Color{100, 0, 0})
	}
	c := fb.At(3, 3)
	if c.R != 255 {
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
			c := fb.At(x, y)
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
	r := NewRenderer(fb)
	r.SetCamera(camera())
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
			if c := fb.At(x, y); c.R > maxR {
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
	r := NewRenderer(fb)
	r.SetCamera(camera())
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

func TestDepthCueAttenuatesFarGeometry(t *testing.T) {
	fb, _ := NewFramebuffer(32, 32)
	r := NewRenderer(fb)
	// Identity transform: coordinates are already NDC, so z maps
	// linearly onto the cue ramp.
	r.EnableDepthCue(0.1)
	r.Point(vmath.V3(-0.5, 0, -0.9), Color{200, 200, 200}) // near
	r.Point(vmath.V3(0.5, 0, 0.9), Color{200, 200, 200})   // far
	var nearR, farR uint8
	for y := 0; y < 32; y++ {
		for x := 0; x < 16; x++ {
			if c := fb.At(x, y); c.R > nearR {
				nearR = c.R
			}
		}
		for x := 16; x < 32; x++ {
			if c := fb.At(x, y); c.R > farR {
				farR = c.R
			}
		}
	}
	if nearR == 0 || farR == 0 {
		t.Fatalf("points missing: near=%d far=%d", nearR, farR)
	}
	if farR >= nearR {
		t.Errorf("far point (%d) not dimmer than near (%d)", farR, nearR)
	}
	// Disabling restores full intensity.
	r.DisableDepthCue()
	fb.Clear(0, 0, 0)
	r.Point(vmath.V3(0.5, 0, 0.9), Color{200, 200, 200})
	var uncued uint8
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if c := fb.At(x, y); c.R > uncued {
				uncued = c.R
			}
		}
	}
	if uncued != 200 {
		t.Errorf("uncued intensity = %d, want 200", uncued)
	}
}

// TestDepthCueNaN: a NaN floor is no floor, and a NaN depth, which the
// raster loop's range test lets through, shades as the near plane.
// Unclamped, either one reaches uint8(float32(v) * NaN), whose value the
// Go spec leaves to the implementation.
func TestDepthCueNaN(t *testing.T) {
	nan := float32(math.NaN())
	fb, _ := NewFramebuffer(32, 32)
	r := NewRenderer(fb)
	r.EnableDepthCue(nan)
	// Identity transform: z = 0 is halfway to the far plane, where no
	// floor leaves half the ink.
	r.Point(vmath.V3(0, 0, 0), Color{200, 100, 50})
	if c := fb.At(15, 15); c != (Color{100, 50, 25}) {
		t.Errorf("NaN floor: point at mid depth = %+v, want {100 50 25}", c)
	}

	// Both ends' depths are finite, but the first step's z0 + t*dz is
	// -3e38 + 0*Inf: NaN, at pixel (7, 7).
	fb.Clear(0, 0, 0)
	r.EnableDepthCue(0.5)
	r.Line(vmath.V3(-0.5, 0.5, -3e38), vmath.V3(0.5, 0, 3e38), Color{200, 100, 50})
	if z := fb.Z[7*fb.W+7]; z == z {
		t.Fatalf("first step's depth = %v, want NaN", z)
	}
	if c := fb.At(7, 7); c != (Color{200, 100, 50}) {
		t.Errorf("NaN depth: pixel = %+v, want the uncued {200 100 50}", c)
	}
	k := r.ink(Color{200, 100, 50})
	if k.shade(nan); k.val != k.base {
		t.Errorf("shade(NaN) = %v, want %v", k.val, k.base)
	}
}

func TestEnableDepthCueClampsFloor(t *testing.T) {
	fb, _ := NewFramebuffer(4, 4)
	r := NewRenderer(fb)
	r.EnableDepthCue(-1)
	r.EnableDepthCue(2) // must not panic or produce >1 floors
	k := r.ink(Color{100, 100, 100})
	if k.shade(1); k.val[0] > 100 || k.val[0] == 0 {
		t.Errorf("far-plane cue of 100 = %d, want in (0, 100]", k.val[0])
	}
}
