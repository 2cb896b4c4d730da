package render

import (
	"math"
	"testing"

	"repro/internal/vmath"
)

// refRenderer is the raster arithmetic before the store path and the
// viewport helper: segment, ink.write, ink.shade, divide, onScreen and
// pointVert as they stood then, with the edge, clipToNear and plot glue
// that calls them. The one change is shade's NaN clamp. Inks come from
// Renderer.ink; this copy ignores ink.store, so it loads every byte it
// blends into. FuzzRasterAgrees holds the renderer to it.
type refRenderer struct {
	FB     *Framebuffer
	y0, y1 int
	mvp    vmath.Mat4
}

func refWrite(k *ink, pix []uint8, p int) {
	for j := k.lo; j < k.hi; j++ {
		b := &pix[p+j]
		*b = uint8(min(uint(*b&k.keep[j])+uint(k.val[j]), 255))
	}
}

func refShade(k *ink, z float32) {
	t := (z + 1) / 2
	if !(t >= 0) {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	f := 1 - t*k.cue
	for j, v := range k.base {
		k.val[j] = uint8(float32(v) * f)
	}
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

func (r *refRenderer) pointVert(p vmath.Vec3) vert {
	v, w := r.mvp.TransformPointW(p)
	if w < nearEps {
		return vert{w: w}
	}
	inv := 1 / w
	return r.onScreen(v.X*inv, v.Y*inv, v.Z*inv, w)
}

func (r *refRenderer) points(pts []vmath.Vec3, k ink) {
	for _, p := range pts {
		v := r.pointVert(p)
		x, y, z := v.ndc.X, v.ndc.Y, v.ndc.Z
		if v.w < nearEps || x < -1 || x > 1 || y < -1 || y > 1 || z < -1 || z > 1 {
			continue
		}
		fb := r.FB
		px, py := int(v.sx), int(v.sy)
		if px < 0 || px >= fb.W || py < r.y0 || py >= r.y1 {
			continue
		}
		if i := py*fb.W + px; !(z > fb.Z[i]) {
			fb.Z[i] = z
			if k.cue != 0 {
				refShade(&k, z)
			}
			refWrite(&k, fb.Pix, 3*i)
		}
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
		if k.cue != 0 {
			refShade(k, z)
		}
		refWrite(k, pix, 3*i)
	}
}

// FuzzRasterAgrees draws a polyline and its points — raw float32 bit
// patterns for two of its vertices, any colour, every writemask subset
// (a protected channel inside the range among them), replace or
// additive, the depth cue off or at a raw-bit floor, confined to any
// band of rows — three ways over framebuffers cleared to a colour that
// an additive ink shows on: through the display list's transform and
// raster, immediately, and through refRenderer. Colour bytes and depth
// bits must agree.
func FuzzRasterAgrees(f *testing.F) {
	bits := func(v float64) uint32 { return math.Float32bits(float32(v)) }
	nan := math.Float32bits(float32(math.NaN()))
	add := func(a, b [3]uint32, c Color, mask uint8, additive, cue bool, floor uint32, y0, y1 uint8, perspective bool) {
		f.Add(a[0], a[1], a[2], b[0], b[1], b[2], c.R, c.G, c.B, mask, additive, cue, floor, y0, y1, perspective)
	}
	a, b := [3]uint32{bits(-0.5), bits(0.2), bits(0.1)}, [3]uint32{bits(0.7), bits(-0.4), bits(-0.3)}
	for _, mask := range []ChannelMask{MaskR, MaskB, MaskR | MaskB, MaskAll, 0} {
		for _, additive := range []bool{false, true} {
			// The eye's mask over every row, then the same mask set
			// inside the scene, depth cued, on a band.
			add(a, b, Color{200, 150, 100}, uint8(mask), additive, false, bits(0), 0, 48, false)
			add(a, b, Color{90, 250, 30}, uint8(mask|8), additive, true, bits(0.3), 5, 30, false)
		}
	}
	add(a, b, Color{200, 200, 200}, uint8(MaskR), false, true, nan, 0, 48, false)
	add([3]uint32{a[0], a[1], nan}, [3]uint32{b[0], b[1], nan}, Color{200, 200, 200}, uint8(MaskB), false, true, bits(0.5), 0, 48, false)
	add([3]uint32{bits(0), bits(0), bits(-3)}, [3]uint32{bits(0.1), bits(5), bits(2)}, Color{255, 255, 255}, uint8(MaskR), false, false, bits(0), 10, 20, true)
	add([3]uint32{bits(-1e38), bits(1e38), bits(0)}, [3]uint32{bits(1e38), bits(-1e38), bits(0)}, Color{255, 0, 255}, uint8(MaskB), true, false, bits(0), 0, 48, true)

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
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz uint32, cr, cg, cb, mask uint8, additive, cue bool, floor uint32, y0, y1 uint8, perspective bool) {
		a := vmath.V3(math.Float32frombits(ax), math.Float32frombits(ay), math.Float32frombits(az))
		b := vmath.V3(math.Float32frombits(bx), math.Float32frombits(by), math.Float32frombits(bz))
		pts := []vmath.Vec3{a, b, a.Lerp(b, 0.5).Add(vmath.V3(0.3, -0.2, 0.1)), a}
		c, m := Color{cr, cg, cb}, vmath.Identity()
		if perspective {
			m = persp
		}
		top := int(y0) % (h + 1)
		bottom := top + int(y1)%(h+1-top)
		// state puts the draw's ink on r; mask bit 3 sets the writemask
		// inside the scene rather than leaving the eye's.
		state := func(r *Renderer) {
			if mask&8 != 0 {
				r.SetMask(ChannelMask(mask) & MaskAll)
			}
			r.Additive = additive
			if cue {
				r.EnableDepthCue(math.Float32frombits(floor))
			}
		}
		scene := func(r *Renderer) {
			state(r)
			r.Polyline(pts, c)
			r.Points(pts[:3], c)
		}
		for _, fb := range fbs {
			fb.Clear(40, 90, 160)
		}
		list, imm, ref := fbs[0], fbs[1], fbs[2]

		var dl DisplayList
		dl.record(list, scene)
		e := eye{mvp: m, mask: ChannelMask(mask) & MaskAll}
		r := Renderer{FB: list, y0: top, y1: bottom}
		for s := range int64(len(dl.slabs)) {
			dl.transform(r.viewport(), &e, s, slot)
			dl.raster(&r, &e, s, slot)
		}
		dl.reset()

		r = Renderer{FB: imm, y0: top, y1: bottom, mask: e.mask, mvp: m}
		scene(&r)

		st := Renderer{mask: e.mask}
		state(&st)
		rr := refRenderer{FB: ref, y0: top, y1: bottom, mvp: m}
		rr.polyline(pts, st.ink(c))
		rr.points(pts[:3], st.ink(c))

		sameFrame(t, "display list", list, ref)
		sameFrame(t, "immediate", imm, ref)
	})
}
