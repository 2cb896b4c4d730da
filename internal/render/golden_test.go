package render_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/render"
	"repro/internal/vmath"
)

// The golden framebuffers: FNV-64a hashes of the colour planes and the
// z-buffer after deterministic scenes, pinned in testdata/golden.txt.
// Every hash there was generated by this file on the renderer as it
// stood before the hot path was rebuilt (PR 17's parent: setPixel per
// pixel, two transforms per interior vertex, eyes in sequence), so a
// change to internal/render that moves one byte of one frame fails
// here. The scenes aim at what an optimised rasteriser gets wrong:
// truncation onto row/column 0, segments far longer than the screen,
// the row where the two bands meet, write order under additive blend.
//
// Coordinates are float32 sums of products, so the hashes hold on
// platforms whose compiler does not fuse multiply-adds (amd64);
// regenerate elsewhere, or after a deliberate change, with
//
//	go test ./internal/render/ -run 'TestGolden|TestSegmentWorkBounded' -update
var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this renderer")

const goldenW, goldenH = 640, 512

// workstationRig is the client's default optics (client.newWorkstation).
func workstationRig() render.StereoRig {
	return render.StereoRig{
		IPD:  0.064,
		Proj: vmath.Perspective(1.5, float32(goldenW)/float32(goldenH), 0.05, 500),
	}
}

// pixelRig makes world coordinates NDC, so a scene can place a vertex
// on an exact pixel: x_px = (x+1)/2*(W-1), y_px = (1-y)/2*(H-1). The
// eyes sit one pixel apart.
func pixelRig() render.StereoRig {
	return render.StereoRig{IPD: 2 / float32(goldenW-1), Proj: vmath.Identity()}
}

// ndc returns the world point pixelRig projects to pixel (px, py), up
// to the half-pixel eye offset.
func ndc(px, py, z float32) vmath.Vec3 {
	return vmath.V3(px/float32(goldenW-1)*2-1, 1-py/float32(goldenH-1)*2, z)
}

// wakeHead is the benchmark's first workstation: above and upstream of
// the cylinder, looking into the wake.
func wakeHead() vmath.Mat4 {
	view := vmath.LookAt(vmath.V3(-6, 14, 24), vmath.V3(4, 0, 8), vmath.V3(0, 1, 0))
	head, _ := view.Inverted()
	return head
}

// wakeLines returns rakes x seeds polylines of n points each: spanwise
// rakes upstream of the cylinder, each seed drifting downstream on a
// seeded random walk — the shape of the `drag` workload's geometry.
func wakeLines(seed int64, rakes, seeds, n int) [][]vmath.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	lines := make([][]vmath.Vec3, 0, rakes*seeds)
	for r := 0; r < rakes; r++ {
		y := -3 + 6*float32(r)/float32(rakes)
		for s := 0; s < seeds; s++ {
			p := vmath.V3(-3, y, 1+13*float32(s)/float32(seeds))
			line := make([]vmath.Vec3, n)
			for i := range line {
				line[i] = p
				p = p.Add(vmath.V3(0.25+0.1*rng.Float32(), 0.2*(rng.Float32()-0.5), 0.2*(rng.Float32()-0.5)))
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// nearCrossers returns n segments that start in front of the eye of
// head and end beside or behind it, so each crosses the near plane and
// projects to millions of pixels.
func nearCrossers(seed int64, head vmath.Mat4, n int) [][2]vmath.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	segs := make([][2]vmath.Vec3, n)
	for i := range segs {
		front := vmath.V3(4*(rng.Float32()-0.5), 3*(rng.Float32()-0.5), -1-8*rng.Float32())
		back := vmath.V3(2*(rng.Float32()-0.5), 2*(rng.Float32()-0.5), 0.02+2*rng.Float32())
		segs[i] = [2]vmath.Vec3{head.TransformPoint(front), head.TransformPoint(back)}
	}
	return segs
}

type goldenScene struct {
	name string
	draw func(fb *render.Framebuffer) error
}

var white = render.Color{R: 255, G: 255, B: 255}

var goldenScenes = []goldenScene{
	{"drag-anaglyph", func(fb *render.Framebuffer) error {
		lines := wakeLines(1, 8, 20, 60)
		return workstationRig().RenderAnaglyph(fb, wakeHead(), func(r *render.Renderer) {
			for _, l := range lines {
				r.Polyline(l, render.Color{R: 230, G: 230, B: 230})
			}
			for i := 0; i < len(lines); i += 20 {
				r.Line(lines[i][0], lines[i+19][0], render.Color{R: 160, G: 160, B: 160})
			}
		})
	}},
	{"smoke-additive", func(fb *render.Framebuffer) error {
		// Dense overlapping filaments saturate; replace-mode lines drawn
		// after them must overwrite, not add.
		smoke := wakeLines(2, 2, 40, 80)
		lines := wakeLines(3, 3, 6, 50)
		return workstationRig().RenderAnaglyph(fb, wakeHead(), func(r *render.Renderer) {
			render.SmokeScene(smoke, 70)(r)
			render.LineScene(lines)(r)
			render.SmokeScene(lines[:6], 200)(r)
		})
	}},
	{"near-plane-crossers", func(fb *render.Framebuffer) error {
		head := wakeHead()
		segs := nearCrossers(8, head, 6)
		lines := wakeLines(9, 2, 6, 40)
		return workstationRig().RenderAnaglyph(fb, head, func(r *render.Renderer) {
			render.LineScene(lines)(r)
			for _, s := range segs {
				r.Line(s[0], s[1], render.Color{R: 200, G: 200, B: 200})
			}
			// One polyline that leaves through the near plane and comes
			// back: both clipped ends share interior vertices.
			r.Polyline([]vmath.Vec3{segs[0][0], segs[0][1], segs[1][0], segs[1][1], segs[2][0]}, white)
		})
	}},
	{"edge-truncation", func(fb *render.Framebuffer) error {
		// Ends at x or y in (-1, 0) px truncate onto column/row 0, ends
		// in (W-1, W) onto the last column; an end further out does not
		// light the edge. Each segment has one end well inside so the
		// half-space reject does not drop it.
		const w, h = goldenW, goldenH
		return pixelRig().RenderAnaglyph(fb, vmath.Identity(), func(r *render.Renderer) {
			for i, out := range []float32{-0.2, -0.5, -0.9, -1.0, -1.1, -1.6, -2.5, -40, -1e4} {
				y := float32(20 + 12*i)
				r.Line(ndc(60, y, 0), ndc(out, y+5, 0), white)
				r.Line(ndc(out, y+300, 0.5), ndc(60, y+300, 0.5), white)
				x := float32(100 + 20*i)
				r.Line(ndc(x, 90, 0), ndc(x+7, out, 0), white)
				r.Line(ndc(x+3, out, -0.5), ndc(x, 70, -0.5), white)
				r.Line(ndc(w-60, y, 0), ndc(w-1-out, y+5, 0), white)
				r.Line(ndc(x+200, h-90, 0), ndc(x+207, h-1-out, 0), white)
			}
			// Corner to corner and beyond, and a z range that leaves
			// [-1, 1] part way along.
			r.Line(ndc(-300, -200, 0), ndc(w+300, h+200, 0), white)
			r.Line(ndc(-0.5, h-0.5, 0), ndc(w-0.5, -0.5, 0), white)
			r.Line(ndc(50, 400, -1.5), ndc(600, 450, 0.5), white)
			r.Line(ndc(50, 420, 0.5), ndc(600, 470, 1.5), white)
		})
	}},
	{"mid-row-straddle", func(fb *render.Framebuffer) error {
		// Row H/2 is where RenderAnaglyph's two bands meet.
		const mid = goldenH / 2
		return pixelRig().RenderAnaglyph(fb, vmath.Identity(), func(r *render.Renderer) {
			for i := 0; i < 24; i++ {
				x := float32(20 + 25*i)
				dy := float32(i)/8 - 1.5
				// Near-horizontal runs hugging the boundary from both sides.
				r.Line(ndc(x, mid+dy, 0), ndc(x+20, mid-dy, 0), white)
				r.Line(ndc(x, mid-1+dy/3, 0.2), ndc(x+20, mid-1+dy/3, 0.2), render.Color{R: 90, G: 90, B: 90})
				// Steep and vertical crossings, drawn both ways.
				r.Line(ndc(x+5, mid-40, 0.1), ndc(x+5+dy, mid+40, 0.1), white)
				r.Line(ndc(x+9, mid+float32(i), -0.1), ndc(x+9, mid-24+float32(i), -0.1), white)
			}
			// Additive fans whose overlaps straddle the boundary.
			r.Additive = true
			for i := 0; i < 40; i++ {
				r.Line(ndc(320, mid, 0.3), ndc(float32(16*i), mid-60+float32(3*i), 0.3), render.Color{R: 60, G: 60, B: 60})
				r.Polyline([]vmath.Vec3{ndc(100, mid-3, 0.4), ndc(float32(110+10*i), mid+2, 0.4), ndc(540, mid-1, 0.4)}, render.Color{R: 40, G: 40, B: 40})
			}
			r.Additive = false
			// Ends exactly on the boundary rows.
			r.Line(ndc(10, mid, 0), ndc(630, mid, 0), render.Color{R: 120, G: 120, B: 120})
			r.Line(ndc(10, mid-1, 0), ndc(630, mid-1, 0), render.Color{R: 130, G: 130, B: 130})
			for _, p := range []vmath.Vec3{ndc(5, mid, 0), ndc(5, mid-1, 0), ndc(5, mid-0.5, 0), ndc(5, mid+0.5, 0)} {
				r.Line(p, p, white)
			}
		})
	}},
	{"points", func(fb *render.Framebuffer) error {
		// Points as zero-length segments, each lighting the one pixel
		// its vertex truncates to, through a rig whose eyes coincide so
		// that world coordinates are NDC for both: a cloud reaching past
		// every face of the NDC cube, replaced and additive, then the
		// corners of NDC and just past them.
		rng := rand.New(rand.NewSource(10))
		pts := make([]vmath.Vec3, 4000)
		for i := range pts {
			pts[i] = vmath.V3(2.4*rng.Float32()-1.2, 2.4*rng.Float32()-1.2, 2.4*rng.Float32()-1.2)
		}
		rig := render.StereoRig{Proj: vmath.Identity()}
		return rig.RenderAnaglyph(fb, vmath.Identity(), func(r *render.Renderer) {
			for _, p := range pts[:2000] {
				r.Line(p, p, render.Color{R: 220, G: 220, B: 220})
			}
			r.Additive = true
			for _, p := range pts[2000:] {
				r.Line(p, p, render.Color{R: 60, G: 60, B: 60})
			}
			r.Additive = false
			for _, e := range []float32{1, 1.0001, 0.9999} {
				for _, p := range []vmath.Vec3{{X: e, Y: e}, {X: -e, Y: e}, {X: e, Y: -e}, {X: -e, Y: -e}} {
					r.Line(p, p, white)
				}
			}
		})
	}},
}

func hashFramebuffer(fb *render.Framebuffer) string {
	h := fnv.New64a()
	h.Write(fb.Pix)
	var b [4]byte
	for _, z := range fb.Z {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(z))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

const goldenPath = "testdata/golden.txt"

// readGolden parses "name hash" lines.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) && *update {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, hash, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			m[name] = hash
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkGolden compares got against the pinned hash for name, or pins
// it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	pinned := readGolden(t)
	if *update {
		pinned[name] = got
		names := make([]string, 0, len(pinned))
		for n := range pinned {
			names = append(names, n)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		buf.WriteString("# FNV-64a of Pix then Z; see golden_test.go\n")
		for _, n := range names {
			fmt.Fprintf(&buf, "%s %s\n", n, pinned[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := pinned[name]
	if !ok {
		t.Fatalf("%s: no pinned hash in %s (run with -update on a known-good renderer)", name, goldenPath)
	}
	if got != want {
		t.Errorf("%s: framebuffer hash %s, pinned %s", name, got, want)
	}
}

func TestGoldenFramebuffers(t *testing.T) {
	for _, sc := range goldenScenes {
		t.Run(sc.name, func(t *testing.T) {
			fb, err := render.NewFramebuffer(goldenW, goldenH)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.draw(fb); err != nil {
				t.Fatal(err)
			}
			if fb.CountLit(0) == 0 {
				t.Fatal("scene drew nothing")
			}
			checkGolden(t, sc.name, hashFramebuffer(fb))
		})
	}
}

// TestSegmentWorkBounded: a segment from in front of the eye to beside
// or behind it is clipped to w = 1e-5 and projects to ~10^7 pixels.
// Rasterising it must cost O(W+H), not its projected length — the
// parent renderer walked every off-screen step, ~29 ms a segment — and
// must light exactly the pixels that walk lit. 1000 of them in 50 ms is
// 25 µs a segment an eye, clears included.
func TestSegmentWorkBounded(t *testing.T) {
	head := wakeHead()
	segs := nearCrossers(11, head, 1000)
	fb, err := render.NewFramebuffer(goldenW, goldenH)
	if err != nil {
		t.Fatal(err)
	}
	frame := func() time.Duration {
		start := time.Now()
		err := workstationRig().RenderAnaglyph(fb, head, func(r *render.Renderer) {
			for _, s := range segs {
				r.Line(s[0], s[1], render.Color{R: 200, G: 200, B: 200})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const limit = 50 * time.Millisecond * raceSlowdown
	best := frame()
	checkGolden(t, "near-plane-1000", hashFramebuffer(fb))
	if *update {
		return
	}
	for i := 0; i < 4 && best >= limit; i++ { // a shared machine stalls; the parent needs 59 s
		best = min(best, frame())
	}
	if best >= limit {
		t.Errorf("1000 near-plane crossers took %v, want < %v", best, limit)
	}
}

// wakeSoup returns a triangle soup, three vertices a triangle, shaped
// like the `heavy` workload's isosurface: n x n cells of a rippled sheet
// through the wake, two small triangles a cell.
func wakeSoup(n int) []vmath.Vec3 {
	at := func(i, j int) vmath.Vec3 {
		u, v := float64(i)/float64(n), float64(j)/float64(n)
		return vmath.V3(float32(-1+13*u), float32(1.5*math.Sin(5*u)*math.Cos(4*v)), float32(1+13*v))
	}
	soup := make([]vmath.Vec3, 0, 6*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			soup = append(soup, at(i, j), at(i+1, j), at(i, j+1), at(i+1, j), at(i+1, j+1), at(i, j+1))
		}
	}
	return soup
}

// BenchmarkRenderAnaglyph renders one stereo frame of wake geometry at
// the workstation's resolution, through a display list kept across
// frames as the workstation keeps its own: ~10 k points shaped like the
// `drag` workload (8 rakes x 20 seeds), ~100 k of lines alone, and
// `heavy`'s real mix — those lines under a ~33 k-vertex isosurface
// soup, which is where a third of that workload's vertices are.
func BenchmarkRenderAnaglyph(b *testing.B) {
	for _, bc := range []struct {
		name               string
		seeds, steps, soup int
	}{{"drag-10k", 20, 60, 0}, {"heavy-100k", 256, 49, 0}, {"heavy-mix-134k", 256, 49, 75}} {
		b.Run(bc.name, func(b *testing.B) {
			fb, err := render.NewFramebuffer(goldenW, goldenH)
			if err != nil {
				b.Fatal(err)
			}
			lines, soup := render.LineScene(wakeLines(1, 8, bc.seeds, bc.steps)), wakeSoup(bc.soup)
			scene := func(r *render.Renderer) {
				lines(r)
				r.Triangles(soup, render.Color{R: 80, G: 170, B: 200})
			}
			rig, head := workstationRig(), wakeHead()
			rig.List = new(render.DisplayList)
			// ns/op is a mean and this is a shared machine: time each
			// frame and report the median and the best as well.
			frames := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range frames {
				start := time.Now()
				if err := rig.RenderAnaglyph(fb, head, scene); err != nil {
					b.Fatal(err)
				}
				frames[i] = time.Since(start)
			}
			b.StopTimer()
			sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
			b.ReportMetric(float64(frames[len(frames)/2]), "p50-ns/op")
			b.ReportMetric(float64(frames[0]), "min-ns/op")
		})
	}
}

// BenchmarkListTransform is the display list's line transform alone,
// both eyes of heavy-mix-134k's lines and soup: transformVerts (the
// SSE2 pass on amd64) and the portable Go loop it replaced there, in ns
// per vertex. It separates the geometry stage from the raster that
// BenchmarkRenderAnaglyph times with it.
func BenchmarkListTransform(b *testing.B) {
	lines, soup := wakeLines(1, 8, 256, 49), wakeSoup(75)
	n := len(soup)
	for _, line := range lines {
		n += len(line)
	}
	rig := workstationRig()
	left, right, err := render.EyeViews(wakeHead(), rig.IPD)
	if err != nil {
		b.Fatal(err)
	}
	eyes := [2]vmath.Mat4{rig.Proj.Mul(left), rig.Proj.Mul(right)}
	for _, bc := range []struct {
		name     string
		portable bool
	}{{"vector", false}, {"portable", true}} {
		b.Run(bc.name, func(b *testing.B) {
			transform := render.TransformLines(bc.portable, goldenW, goldenH)
			b.ResetTimer()
			for range b.N {
				for e := range eyes {
					for _, line := range lines {
						transform(&eyes[e], line)
					}
					transform(&eyes[e], soup)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(eyes)*n), "ns/vertex")
		})
	}
}
