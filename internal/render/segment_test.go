package render

import (
	"bytes"
	"fmt"
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

// ringScene is geometry chosen to break the display list and its row
// bands: more than three ring-fulls of vertices, so every slot is
// recycled and transforming has to wait for rastering; a polyline and a
// triangle soup longer than a slab, the polyline zigzagging through the
// near plane at the vertices it is cut at; additive overlaps and
// depth-cued runs across every row; draws that pass their points by
// value; and points and lines under a transform and a writemask set
// inside the scene.
func ringScene() Scene {
	rng := rand.New(rand.NewSource(2))
	walk := func(n int, step float32) []vmath.Vec3 {
		line := make([]vmath.Vec3, n)
		p := vmath.V3(rng.Float32()*4-2, rng.Float32()*4-2, -2-rng.Float32()*6)
		for j := range line {
			line[j] = p
			p = p.Add(vmath.V3(rng.Float32()-0.5, rng.Float32()-0.5, rng.Float32()-0.5).Scale(step))
			p.Z = min(p.Z, -0.5)
		}
		return line
	}
	long := walk(3*slabVerts, 0.1)
	for _, cut := range []int{slabVerts - 1, 2 * (slabVerts - 1)} {
		for i := cut - 7; i <= cut+7; i += 2 {
			long[i].Z = 1 // behind the eye: both neighbouring segments cross the near plane
		}
	}
	var lines [][]vmath.Vec3
	for i := 0; i < 800; i++ {
		lines = append(lines, walk(40, 0.3))
	}
	soup := make([]vmath.Vec3, 0, 3*12000)
	for i := 0; i < 12000; i++ {
		tri := walk(3, 0.4)
		if i%97 == 0 {
			tri[i%3].Z = 0.5
		}
		soup = append(soup, tri...)
	}
	soup = append(soup, walk(2, 1)...) // not a whole triangle: ignored
	pts := walk(30000, 0.2)
	zoom := vmath.Perspective(0.6, 1, 0.05, 100).Mul(vmath.Translate(0.3, -0.2, 0))
	return func(r *Renderer) {
		r.Polyline(long, Color{255, 255, 255})
		r.Additive = true
		for _, l := range lines[:400] {
			r.Polyline(l, Color{90, 90, 90})
		}
		r.Additive = false
		r.EnableDepthCue(0.2)
		for _, l := range lines[400:] {
			r.Polyline(l, Color{220, 220, 220})
		}
		r.Triangles(soup[:3*4000], Color{200, 200, 200})
		r.DisableDepthCue()
		r.Triangles(soup[3*4000:], Color{120, 170, 200})
		for i := 0; i < 200; i++ {
			r.Line(pts[i], pts[i+1000], Color{255, 255, 255})
			r.Point(pts[i+2000], Color{250, 250, 250})
		}
		r.Points(pts[:10000], Color{255, 255, 255})
		r.Polyline(pts[:1], Color{255, 255, 255}) // draws nothing
		r.SetMVP(zoom)
		r.EnableDepthCue(0.5)
		r.Points(pts[10000:], Color{180, 180, 180})
		r.DisableDepthCue()
		for _, l := range lines[:50] {
			r.Polyline(l, Color{255, 255, 255})
		}
		r.SetMask(MaskG | MaskB)
		for _, l := range lines[50:100] {
			r.Polyline(l, Color{255, 200, 150})
		}
	}
}

// oneRenderer draws a stereo frame the way §3 describes and a single
// immediate-mode Renderer does it: the whole scene for the left eye,
// then the whole scene for the right. It is what RenderAnaglyph's
// display list, ring and bands must reproduce byte for byte.
func oneRenderer(t testing.TB, rig StereoRig, w, h int, head vmath.Mat4, scene Scene) *Framebuffer {
	t.Helper()
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	left, right, err := EyeViews(head, rig.IPD)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRenderer(fb)
	r.SetMVP(rig.Proj.Mul(left))
	r.SetMask(MaskR)
	scene(r)
	fb.ClearZ()
	r.SetMVP(rig.Proj.Mul(right))
	r.SetMask(MaskB)
	scene(r)
	return fb
}

// viaList draws the frame through RenderAnaglyph's path with the given
// number of band workers, over a framebuffer holding an earlier frame.
func viaList(t testing.TB, rig StereoRig, w, h int, head vmath.Mat4, scene Scene, bands int) *Framebuffer {
	t.Helper()
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(9, 9, 9) // RenderAnaglyph owns the clear
	if err := rig.renderBands(fb, head, scene, bands); err != nil {
		t.Fatal(err)
	}
	return fb
}

// sameFrame requires got to be want, colour bytes and depth bits.
func sameFrame(t testing.TB, what string, got, want *Framebuffer) {
	t.Helper()
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Errorf("%s: color planes differ", what)
	}
	for i := range got.Z {
		if math.Float32bits(got.Z[i]) != math.Float32bits(want.Z[i]) {
			t.Errorf("%s: z-buffer differs at %d", what, i)
			break
		}
	}
}

const ringW, ringH = 160, 121 // odd height: bands of unequal size

func ringRig() StereoRig {
	return StereoRig{IPD: 0.3, Proj: vmath.Perspective(1.2, float32(ringW)/float32(ringH), 0.05, 100)}
}

// TestBandsMatchSingleBand renders one scene with a single
// immediate-mode renderer and through the display list with one, two,
// three, seven and H concurrent band workers (run it under -race): the
// bytes must not depend on the list, the ring or the split.
func TestBandsMatchSingleBand(t *testing.T) {
	scene, calls, verts := ringScene(), 0, 0
	counting := func(r *Renderer) {
		calls++
		scene(r)
		if r.list != nil {
			for _, rn := range r.list.runs {
				verts += len(rn.pts)
			}
		}
	}
	want := oneRenderer(t, ringRig(), ringW, ringH, vmath.Identity(), scene)
	if want.CountLit(0) < 2000 {
		t.Fatalf("scene nearly empty: %d lit", want.CountLit(0))
	}
	for _, bands := range []int{1, 2, 3, 7, ringH} {
		calls, verts = 0, 0
		got := viaList(t, ringRig(), ringW, ringH, vmath.Identity(), counting, bands)
		sameFrame(t, fmt.Sprintf("%d bands", bands), got, want)
		if calls != 1 {
			t.Errorf("%d bands: Scene ran %d times a frame, want once", bands, calls)
		}
		if verts < 3*ringSlots*slabVerts {
			t.Fatalf("scene recorded %d vertices, want at least three ring-fulls (%d)", verts, 3*ringSlots*slabVerts)
		}
	}
}

// TestEmptySceneClears: a scene that draws nothing (no slab at all) and
// one that fits one slab (the ring's smallest shape) still leave what
// one renderer leaves.
func TestEmptySceneClears(t *testing.T) {
	for name, scene := range map[string]Scene{
		"empty":    func(r *Renderer) { r.Polyline(nil, Color{255, 255, 255}) },
		"one line": func(r *Renderer) { r.Line(vmath.V3(-1, -1, -3), vmath.V3(1, 1, -3), Color{255, 255, 255}) },
	} {
		want := oneRenderer(t, ringRig(), ringW, ringH, vmath.Identity(), scene)
		for _, bands := range []int{1, 2, 3} {
			sameFrame(t, fmt.Sprintf("%s, %d bands", name, bands), viaList(t, ringRig(), ringW, ringH, vmath.Identity(), scene, bands), want)
		}
	}
}

// TestBytesIndependentOfWhoTransforms pins which worker transforms which
// slab — one worker all of them, strict alternation, an order drawn
// from a seed — schedules two processors would rarely produce on their
// own: the frame is the same bytes under every one.
func TestBytesIndependentOfWhoTransforms(t *testing.T) {
	scene := ringScene()
	want := oneRenderer(t, ringRig(), ringW, ringH, vmath.Identity(), scene)
	for _, bands := range []int{2, 3} {
		hooks := map[string]func(w int, g int64) bool{
			"first worker transforms": func(w int, g int64) bool { return w == 0 },
			"last worker transforms":  func(w int, g int64) bool { return w == bands-1 },
			"strict alternation":      func(w int, g int64) bool { return int(g)%bands == w },
		}
		for seed := uint64(1); seed <= 3; seed++ {
			hooks[fmt.Sprintf("seed %d", seed)] = func(w int, g int64) bool {
				return int((uint64(g)+seed)*0x9E3779B97F4A7C15>>33)%bands == w
			}
		}
		for name, hook := range hooks {
			rig := ringRig()
			rig.List = &DisplayList{mayClaim: hook}
			got := viaList(t, rig, ringW, ringH, vmath.Identity(), scene, bands)
			sameFrame(t, fmt.Sprintf("%d bands, %s", bands, name), got, want)
		}
	}
}

// TestTrianglesMatchClosedPolylines: a soup is drawn as the closed
// four-point polyline per triangle it replaces, near-plane crossers
// included, recorded or immediate. (Additive, so the order the edges
// are drawn in shows: a nearer edge drawn first keeps a farther one
// from adding.)
func TestTrianglesMatchClosedPolylines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	soup := make([]vmath.Vec3, 3*3000+1)
	for i := range soup {
		soup[i] = vmath.V3(rng.Float32()*6-3, rng.Float32()*6-3, 1-rng.Float32()*8)
	}
	c := Color{200, 150, 100}
	triangles := func(r *Renderer) {
		r.Additive = true
		r.Triangles(soup, c)
		r.Additive = false
	}
	polylines := func(r *Renderer) {
		r.Additive = true
		for i := 0; i+2 < len(soup); i += 3 {
			r.Polyline([]vmath.Vec3{soup[i], soup[i+1], soup[i+2], soup[i]}, c)
		}
		r.Additive = false
	}
	want := oneRenderer(t, ringRig(), ringW, ringH, vmath.Identity(), polylines)
	if want.CountLit(0) < 2000 {
		t.Fatalf("scene nearly empty: %d lit", want.CountLit(0))
	}
	sameFrame(t, "immediate Triangles", oneRenderer(t, ringRig(), ringW, ringH, vmath.Identity(), triangles), want)
	sameFrame(t, "recorded Triangles", viaList(t, ringRig(), ringW, ringH, vmath.Identity(), triangles, 2), want)
	sameFrame(t, "recorded polylines", viaList(t, ringRig(), ringW, ringH, vmath.Identity(), polylines, 2), want)
}

// TestListReleasesCallerSlices: a list kept across frames keeps its own
// buffers, not the geometry it drew — the workstation's would otherwise
// pin the previous reply's lines until the next frame.
func TestListReleasesCallerSlices(t *testing.T) {
	rig := ringRig()
	rig.List = new(DisplayList)
	viaList(t, rig, ringW, ringH, vmath.Identity(), ringScene(), 2)
	dl := rig.List
	if cap(dl.runs) == 0 || dl.ring[0] == nil {
		t.Fatal("list kept no buffers: nothing to check")
	}
	if len(dl.runs)+len(dl.slabs)+len(dl.pts)+len(dl.mvps)+dl.fill != 0 {
		t.Error("list not empty after the frame")
	}
	for i, rn := range dl.runs[:cap(dl.runs)] {
		if rn.pts != nil {
			t.Fatalf("run %d still holds a slice of %d points", i, len(rn.pts))
		}
	}
}

// FuzzLine draws segments whose coordinates are raw float32 bit
// patterns — NaN, infinities, 1e38, denormals — through a renderer
// confined to a band of rows: no panic, time bounded by the viewport
// rather than the coordinates, and no byte touched outside the band.
// Then the same draws through RenderAnaglyph: two band workers write
// the bytes and depths one does.
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
	proj := vmath.Perspective(1.2, float32(w)/float32(h), 0.05, 100)
	persp := proj.Mul(view)
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

		rig := StereoRig{IPD: 0.1, Proj: vmath.Identity()}
		if perspective {
			rig.Proj = proj
		}
		scene := func(r *Renderer) {
			r.Line(a, b, Color{255, 255, 255})
			r.Polyline([]vmath.Vec3{b, a, b}, Color{200, 200, 200})
			r.Triangles([]vmath.Vec3{a, b, a.Lerp(b, 0.5).Add(vmath.V3(0.1, 0.2, 0))}, Color{150, 150, 150})
			r.Point(a, Color{255, 255, 255})
		}
		one := viaList(t, rig, w, h, vmath.Identity(), scene, 1)
		sameFrame(t, fmt.Sprintf("drawing %v-%v with two workers", a, b), viaList(t, rig, w, h, vmath.Identity(), scene, 2), one)
	})
}
