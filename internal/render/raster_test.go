package render

import (
	"math"
	"testing"

	"repro/internal/vmath"
)

// refRenderer is the raster arithmetic before the store path and the
// viewport helper: segment, ink.write, divide and onScreen as they
// stood then, with the edge and clipToNear glue that calls them. Inks
// come from Renderer.ink, and this copy blends each one through the
// bit mask an ink kept then (every bit under an additive draw, none
// under a replacing one), so it loads every byte it blends into.
// FuzzRasterAgrees holds the renderer to it.
type refRenderer struct {
	FB     *Framebuffer
	y0, y1 int
	mvp    vmath.Mat4
}

func refWrite(k *ink, pix []uint8, p int) {
	keep := uint8(0)
	if k.add {
		keep = 0xFF
	}
	b := &pix[p+k.ch]
	*b = uint8(min(uint(*b&keep)+uint(k.val), 255))
}

func (r *refRenderer) divide(p vmath.Vec3, w float32) vert {
	return r.onScreen(p.X/w, p.Y/w, p.Z/w, w)
}

func (r *refRenderer) onScreen(x, y, z, w float32) vert {
	return vert{
		ndc: vmath.Vec3{X: x, Y: y, Z: z},
		w:   w,
		sx:  (x + 1) / 2 * float32(r.FB.W-1),
		sy:  (1 - y) / 2 * float32(r.FB.H-1),
	}
}

func (r *refRenderer) polyline(pts []vmath.Vec3, k ink) {
	var a vert
	for i := range pts {
		b := r.divide(r.mvp.TransformPointW(pts[i]))
		if i > 0 {
			switch pa, pb := pts[i-1], pts[i]; {
			case a.w < nearEps && b.w < nearEps:
			case a.w < nearEps:
				r.segment(r.clipToNear(pb, pa), b, &k)
			case b.w < nearEps:
				r.segment(a, r.clipToNear(pa, pb), &k)
			default:
				r.segment(a, b, &k)
			}
		}
		a = b
	}
}

func (r *refRenderer) clipToNear(inside, outside vmath.Vec3) vert {
	pi, wi := r.mvp.TransformPointW(inside)
	po, wo := r.mvp.TransformPointW(outside)
	t := (wi - nearEps) / (wi - wo)
	return r.divide(pi.Lerp(po, t), nearEps)
}

func (r *refRenderer) segment(a, b vert, k *ink) {
	if (a.ndc.X < -1 && b.ndc.X < -1) || (a.ndc.X > 1 && b.ndc.X > 1) ||
		(a.ndc.Y < -1 && b.ndc.Y < -1) || (a.ndc.Y > 1 && b.ndc.Y > 1) ||
		(a.ndc.Z < -1 && b.ndc.Z < -1) || (a.ndc.Z > 1 && b.ndc.Z > 1) {
		return
	}
	fb := r.FB
	x0, y0, z0 := a.sx, a.sy, a.ndc.Z
	dx, dy, dz := b.sx-x0, b.sy-y0, b.ndc.Z-z0
	ya, yb := int64(y0), int64(y0+dy)
	y0b, y1b := int64(r.y0), int64(r.y1)
	if (ya < y0b && yb < y0b) || (ya >= y1b && yb >= y1b) {
		return
	}
	if !(absf(dx)+absf(dy) < maxExtent) {
		return
	}
	steps := int64(max(absf(dx), absf(dy))) + 1
	fsteps := float32(steps)
	lo, hi := int64(0), steps
	if xa, xb, w := int64(x0), int64(x0+dx), int64(fb.W); ya < y0b || yb < y0b || ya >= y1b || yb >= y1b ||
		xa < 0 || xb < 0 || xa >= w || xb >= w {
		lo, hi = span(lo, hi, fsteps, y0, dy, y0b, y1b)
		lo, hi = span(lo, hi, fsteps, x0, dx, 0, w)
	}
	zb, pix, w := fb.Z, fb.Pix, fb.W
	for s := lo; s <= hi; s++ {
		t := float32(s) / fsteps
		z := z0 + t*dz
		if z < -1 || z > 1 {
			continue
		}
		i := int(y0+t*dy)*w + int(x0+t*dx)
		if z > zb[i] {
			continue
		}
		zb[i] = z
		refWrite(k, pix, 3*i)
	}
}

// FuzzRasterAgrees draws a polyline — raw float32 bit patterns for two
// of its vertices, any color, either eye, replace or additive,
// confined to any band of rows — three ways over framebuffers cleared
// to a color that an additive ink shows on: through the display list's
// transform and raster, immediately, and through refRenderer. Color
// bytes and depth bits must agree.
func FuzzRasterAgrees(f *testing.F) {
	bits := func(v float64) uint32 { return math.Float32bits(float32(v)) }
	nan := math.Float32bits(float32(math.NaN()))
	add := func(a, b [3]uint32, c Color, right, additive bool, y0, y1 uint8, perspective bool) {
		f.Add(a[0], a[1], a[2], b[0], b[1], b[2], c.R, c.G, c.B, right, additive, y0, y1, perspective)
	}
	a, b := [3]uint32{bits(-0.5), bits(0.2), bits(0.1)}, [3]uint32{bits(0.7), bits(-0.4), bits(-0.3)}
	bands := [][2]uint8{{0, 48}, {5, 30}, {0, 24}, {24, 48}, {47, 48}}
	for _, right := range []bool{false, true} {
		for _, additive := range []bool{false, true} {
			// Every row, then bands that split the polyline, meet in
			// the middle or hold one row.
			for i, band := range bands {
				c := Color{200, 150, 100}
				if i%2 == 1 {
					c = Color{90, 250, 30}
				}
				add(a, b, c, right, additive, band[0], band[1], false)
			}
		}
	}
	add([3]uint32{a[0], a[1], nan}, [3]uint32{b[0], b[1], nan}, Color{200, 200, 200}, true, false, 0, 48, false)
	add([3]uint32{bits(0), bits(0), bits(-3)}, [3]uint32{bits(0.1), bits(5), bits(2)}, Color{255, 255, 255}, false, false, 10, 20, true)
	add([3]uint32{bits(-1e38), bits(1e38), bits(0)}, [3]uint32{bits(1e38), bits(-1e38), bits(0)}, Color{255, 0, 255}, true, true, 0, 48, true)
	add([3]uint32{bits(1), bits(-1), bits(0)}, [3]uint32{bits(1), bits(-1), bits(0)}, Color{255, 255, 255}, false, true, 0, 48, false)

	const w, h = 64, 48
	view := vmath.LookAt(vmath.V3(0, 0, 0), vmath.V3(0, 0, -1), vmath.V3(0, 1, 0))
	persp := vmath.Perspective(1.2, float32(w)/float32(h), 0.05, 100).Mul(view)
	var fbs [3]*Framebuffer
	for i := range fbs {
		fb, err := NewFramebuffer(w, h)
		if err != nil {
			f.Fatal(err)
		}
		fbs[i] = fb
	}
	slot := make([]vert, slabVerts)
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz uint32, cr, cg, cb uint8, right, additive bool, y0, y1 uint8, perspective bool) {
		a := vmath.V3(math.Float32frombits(ax), math.Float32frombits(ay), math.Float32frombits(az))
		b := vmath.V3(math.Float32frombits(bx), math.Float32frombits(by), math.Float32frombits(bz))
		pts := []vmath.Vec3{a, b, a.Lerp(b, 0.5).Add(vmath.V3(0.3, -0.2, 0.1)), a}
		c, e := Color{cr, cg, cb}, eye{mvp: vmath.Identity(), mask: maskR}
		if perspective {
			e.mvp = persp
		}
		if right {
			e.mask = maskB
		}
		top := int(y0) % (h + 1)
		bottom := top + int(y1)%(h+1-top)
		scene := func(r *Renderer) {
			r.Additive = additive
			r.Polyline(pts, c)
		}
		for _, fb := range fbs {
			fb.Clear(40, 90, 160)
		}
		list, imm, ref := fbs[0], fbs[1], fbs[2]

		var dl DisplayList
		dl.record(list, scene)
		r := Renderer{FB: list, y0: top, y1: bottom, mask: e.mask, mvp: e.mvp}
		for s := range int64(len(dl.slabs)) {
			dl.transform(r.viewport(), &e, s, slot)
			dl.raster(&r, s, slot)
		}
		dl.reset()

		r = Renderer{FB: imm, y0: top, y1: bottom, mask: e.mask, mvp: e.mvp}
		drawNow(&r, scene)

		rr := refRenderer{FB: ref, y0: top, y1: bottom, mvp: e.mvp}
		rr.polyline(pts, r.ink(c))

		sameFrame(t, "display list", list, ref)
		sameFrame(t, "immediate", imm, ref)
	})
}
