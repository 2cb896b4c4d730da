package render

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/vmath"
)

// TestSpanMatchesWalk checks span against the walk it replaces: every
// step whose truncated coordinate lands in [from, to), and no other.
func TestSpanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		// Ends from well outside a 40-pixel window to inside it, so
		// every case occurs: inside, outside on either side, entering,
		// leaving, crossing, and sub-pixel slopes that dwell on a row.
		v0 := rng.Float32()*200 - 80
		v1 := rng.Float32()*200 - 80
		if n%5 == 0 {
			v1 = v0 + rng.Float32()*4 - 2
		}
		dv := v1 - v0
		steps := int64(absf(dv)) + 1 + int64(rng.Intn(3))*int64(rng.Intn(200))
		from, to := int64(rng.Intn(20)), int64(20+rng.Intn(20))
		wantLo, wantHi := int64(1), int64(0)
		for s := int64(0); s <= steps; s++ {
			if c := coord(s, float32(steps), v0, dv); c >= from && c < to {
				if wantLo > wantHi {
					wantLo = s
				}
				wantHi = s
			}
		}
		lo, hi := span(0, steps, float32(steps), v0, dv, from, to)
		if lo > hi && wantLo > wantHi {
			continue
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("span(v0=%v dv=%v steps=%d [%d,%d)) = [%d,%d], walk says [%d,%d]", v0, dv, steps, from, to, lo, hi, wantLo, wantHi)
		}
	}
}

// bandScene is geometry chosen to break a row-band split: segments
// that straddle and hug the boundary rows, additive overlaps across
// them, near-plane crossers that sweep the whole screen, and points.
func bandScene() Scene {
	rng := rand.New(rand.NewSource(2))
	var lines [][]vmath.Vec3
	for i := 0; i < 60; i++ {
		line := make([]vmath.Vec3, 12)
		p := vmath.V3(rng.Float32()*4-2, rng.Float32()*4-2, -2-rng.Float32()*6)
		for j := range line {
			line[j] = p
			p = p.Add(vmath.V3(rng.Float32()-0.5, rng.Float32()-0.5, rng.Float32()*1.5-0.5))
		}
		lines = append(lines, line)
	}
	return func(r *Renderer) {
		r.Additive = true
		for _, l := range lines[:30] {
			r.Polyline(l, Color{90, 90, 90})
		}
		r.Additive = false
		r.EnableDepthCue(0.2)
		for _, l := range lines[30:] {
			r.Polyline(l, Color{220, 220, 220})
		}
		r.DisableDepthCue()
		for i := 0; i < 8; i++ {
			// From in front of the eye to behind it.
			r.Line(vmath.V3(float32(i)-4, 0.3*float32(i)-1, -5), vmath.V3(0.2*float32(i)-1, 0.1, 1), Color{255, 255, 255})
		}
		for _, l := range lines {
			r.Points(l, Color{255, 255, 255})
		}
	}
}

// TestBandsMatchSingleBand renders one scene through one band and
// through two, three and seven concurrent ones (run it under -race):
// the bytes must not depend on the split.
func TestBandsMatchSingleBand(t *testing.T) {
	const w, h = 160, 121 // odd height: bands of unequal size
	rig := StereoRig{IPD: 0.3, Proj: vmath.Perspective(1.2, float32(w)/float32(h), 0.05, 100)}
	scene := bandScene()
	render := func(bands int) *Framebuffer {
		fb, err := NewFramebuffer(w, h)
		if err != nil {
			t.Fatal(err)
		}
		fb.Clear(9, 9, 9) // RenderAnaglyph owns the clear
		if err := rig.renderBands(fb, vmath.Identity(), scene, bands); err != nil {
			t.Fatal(err)
		}
		return fb
	}
	want := render(1)
	if want.CountLit(0) < 500 {
		t.Fatalf("scene nearly empty: %d lit", want.CountLit(0))
	}
	for _, bands := range []int{2, 3, 7, h} {
		got := render(bands)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%d bands: color planes differ from one band", bands)
		}
		for i := range got.Z {
			if math.Float32bits(got.Z[i]) != math.Float32bits(want.Z[i]) {
				t.Errorf("%d bands: z-buffer differs from one band at %d", bands, i)
				break
			}
		}
	}
}

// FuzzLine draws segments whose coordinates are raw float32 bit
// patterns — NaN, infinities, 1e38, denormals — through a renderer
// confined to a band of rows: no panic, time bounded by the viewport
// rather than the coordinates, and no byte touched outside the band.
func FuzzLine(f *testing.F) {
	bits := func(v float64) uint32 { return math.Float32bits(float32(v)) }
	nan, inf := math.Float32bits(float32(math.NaN())), bits(math.Inf(1))
	f.Add(bits(-0.5), bits(0.2), bits(-3), bits(0.7), bits(-0.1), bits(-4), true)
	f.Add(bits(0), bits(0), bits(-3), bits(0.1), bits(5), bits(2), true) // crosses the near plane
	f.Add(nan, bits(0), bits(0), bits(0.5), bits(0.5), bits(0), false)
	f.Add(bits(0), inf, bits(0), bits(0.5), bits(0.5), bits(0), false)
	f.Add(bits(-1e38), bits(1e38), bits(0), bits(1e38), bits(-1e38), bits(0), false)
	f.Add(bits(-0.9), bits(0.9), bits(0), bits(3e9), bits(-2e9), bits(0), false)
	f.Add(bits(0), bits(0), bits(-1e-6), bits(1e38), bits(1e38), bits(1e38), true)
	f.Add(bits(1e-45), bits(-1e-45), nan, inf, bits(-1e38), bits(0.5), true)

	const w, h, y0, y1 = 64, 48, 10, 30
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		f.Fatal(err)
	}
	view := vmath.LookAt(vmath.V3(0, 0, 0), vmath.V3(0, 0, -1), vmath.V3(0, 1, 0))
	persp := vmath.Perspective(1.2, float32(w)/float32(h), 0.05, 100).Mul(view)
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz uint32, perspective bool) {
		a := vmath.V3(math.Float32frombits(ax), math.Float32frombits(ay), math.Float32frombits(az))
		b := vmath.V3(math.Float32frombits(bx), math.Float32frombits(by), math.Float32frombits(bz))
		fb.Clear(7, 7, 7)
		r := NewRenderer(fb)
		r.y0, r.y1 = y0, y1
		if perspective {
			r.SetMVP(persp)
		}
		start := time.Now()
		r.Line(a, b, Color{255, 255, 255})
		r.Polyline([]vmath.Vec3{b, a, b}, Color{200, 200, 200})
		r.Point(a, Color{255, 255, 255})
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("drawing %v-%v took %v", a, b, d)
		}
		for y := 0; y < h; y++ {
			if y >= y0 && y < y1 {
				continue
			}
			for x := 0; x < w; x++ {
				if i := y*w + x; fb.At(x, y) != (Color{7, 7, 7}) || !math.IsInf(float64(fb.Z[i]), 1) {
					t.Fatalf("drawing %v-%v wrote pixel (%d,%d), outside rows [%d,%d)", a, b, x, y, y0, y1)
				}
			}
		}
	})
}
