package render

import (
	"math/bits"

	"repro/internal/vmath"
)

// Renderer rasterizes 3-D lines into a framebuffer through a
// model-view-projection transform, one eye's channel at a time.
type Renderer struct {
	FB *Framebuffer
	// y0, y1 bound the rows this renderer writes, [y0, y1): the whole
	// framebuffer, or one of RenderAnaglyph's bands.
	y0, y1 int
	// mask and mvp are the eye being drawn: its colour plane (maskR or
	// maskB) and its transform.
	mask channelMask
	mvp  vmath.Mat4
	// Additive selects saturating-add blending (smoke) instead of
	// replace.
	Additive bool

	// list, when set, makes this the Renderer a Scene records through:
	// draw calls go on the list instead of the framebuffer.
	list *DisplayList
}

// ink is what one draw call writes per pixel, resolved once from the
// color, the eye's channel and the blend mode instead of per pixel:
// byte ch of a pixel becomes val, or under an additive draw (smoke)
// min(old + val, 255).
type ink struct {
	ch  int
	val uint8
	add bool
}

func (r *Renderer) ink(c Color) ink {
	ch := bits.TrailingZeros8(uint8(r.mask))
	return ink{ch: ch, val: [3]uint8{c.R, c.G, c.B}[ch], add: r.Additive}
}

// vert is a vertex after the perspective divide, meaningful when it
// lies in front of the near plane (w >= nearEps). (Four fields, so the
// compiler keeps it in registers.)
type vert struct {
	ndc    vmath.Vec3
	w      float32
	sx, sy float32 // pixels, before truncation
}

// viewport is the scale from NDC to a framebuffer's pixels,
// float32(W-1) by float32(H-1), converted once per draw call or slab
// and held in registers rather than reloaded through the Renderer for
// every vertex.
type viewport struct{ w, h float32 }

func (r *Renderer) viewport() viewport {
	return viewport{float32(r.FB.W - 1), float32(r.FB.H - 1)}
}

// divide is a vertex: the transformed point p, w divided by w, and
// the one place the NDC-to-pixel arithmetic lives.
func (vp viewport) divide(p vmath.Vec3, w float32) vert {
	x, y, z := p.X/w, p.Y/w, p.Z/w
	return vert{
		ndc: vmath.Vec3{X: x, Y: y, Z: z},
		w:   w,
		sx:  (x + 1) / 2 * vp.w,
		sy:  (1 - y) / 2 * vp.h,
	}
}

const nearEps = 1e-5

// Polyline draws connected line segments through pts. Each vertex is
// transformed and divided once, whichever segments share it; a segment
// that crosses the near plane w = nearEps is cut there first.
func (r *Renderer) Polyline(pts []vmath.Vec3, c Color) {
	if r.list != nil {
		r.list.add(r, kindPolyline, pts, c)
		return
	}
	r.polyline(pts, c)
}

// polyline is Polyline drawn now, the vertex two segments share carried
// from one to the next.
//
//vw:hotpath
func (r *Renderer) polyline(pts []vmath.Vec3, c Color) {
	k, vp := r.ink(c), r.viewport()
	var a vert
	for i := range pts {
		b := vp.divide(r.mvp.TransformPointW(pts[i]))
		if i > 0 {
			r.edge(&a, &b, &pts[i-1], &pts[i], &k)
		}
		a = b
	}
}

// Line draws one 3-D line segment.
func (r *Renderer) Line(a, b vmath.Vec3, c Color) {
	if r.list != nil {
		r.list.add(r, kindPolyline, r.list.keep(a, b), c)
		return
	}
	pts := [2]vmath.Vec3{a, b}
	r.polyline(pts[:], c)
}

// Triangles draws a wireframe triangle soup: three vertices per
// triangle, edges 0-1, 1-2, 2-0 in that order — what Polyline draws
// through the closed path p0 p1 p2 p0. Vertices past the last whole
// triangle are ignored.
func (r *Renderer) Triangles(pts []vmath.Vec3, c Color) {
	if r.list != nil {
		r.list.add(r, kindTriangles, pts, c)
		return
	}
	for i := 0; i+2 < len(pts); i += 3 {
		tri := [4]vmath.Vec3{pts[i], pts[i+1], pts[i+2], pts[i]}
		r.polyline(tri[:], c)
	}
}

// edge draws the segment between two transformed vertices, pa and pb
// before the transform: all of it, the part in front of the near
// plane, or nothing.
func (r *Renderer) edge(a, b *vert, pa, pb *vmath.Vec3, k *ink) {
	switch {
	case a.w < nearEps && b.w < nearEps:
	case a.w < nearEps:
		r.segment(r.clipToNear(*pb, *pa), *b, k)
	case b.w < nearEps:
		r.segment(*a, r.clipToNear(*pa, *pb), k)
	default:
		r.segment(*a, *b, k)
	}
}

// clipToNear returns where the segment from inside (w >= nearEps) to
// outside meets the near plane.
func (r *Renderer) clipToNear(inside, outside vmath.Vec3) vert {
	pi, wi := r.mvp.TransformPointW(inside)
	po, wo := r.mvp.TransformPointW(outside)
	t := (wi - nearEps) / (wi - wo)
	return r.viewport().divide(pi.Lerp(po, t), nearEps)
}

// maxExtent bounds a segment's projected length in pixels. Anything
// longer — or NaN, or infinite — is dropped: its step count would not
// fit an int64, which no GOARCH converts the same way. (A segment
// clipped at the near plane beside the eye reaches ~10^9; one at this
// bound would have taken the per-step walk this replaced a century.)
const maxExtent = 1 << 62

// segment rasterises the segment between two vertices in front of the
// near plane: a z-buffered float DDA over the steps that land on this
// renderer's rows. The step arithmetic — t = s/steps, truncation by
// int(), ascending s — is what every pinned framebuffer was drawn
// with; only steps that cannot write are skipped, and only an additive
// ink reads the pixel it writes.
//
//vw:hotpath
func (r *Renderer) segment(a, b vert, k *ink) {
	// Trivial reject when both ends share an outside half-space.
	if (a.ndc.X < -1 && b.ndc.X < -1) || (a.ndc.X > 1 && b.ndc.X > 1) ||
		(a.ndc.Y < -1 && b.ndc.Y < -1) || (a.ndc.Y > 1 && b.ndc.Y > 1) ||
		(a.ndc.Z < -1 && b.ndc.Z < -1) || (a.ndc.Z > 1 && b.ndc.Z > 1) {
		return
	}

	// Rows and columns of the first and last step (t is exactly 0 and
	// 1 there); every step between lies between them (see span).
	fb := r.FB
	x0, y0, z0 := a.sx, a.sy, a.ndc.Z
	dx, dy, dz := b.sx-x0, b.sy-y0, b.ndc.Z-z0
	ya, yb := int64(y0), int64(y0+dy)
	y0b, y1b := int64(r.y0), int64(r.y1)
	if (ya < y0b && yb < y0b) || (ya >= y1b && yb >= y1b) {
		return // another band's
	}
	if !(absf(dx)+absf(dy) < maxExtent) {
		return
	}
	steps := int64(max(absf(dx), absf(dy))) + 1
	fsteps := float32(steps)
	lo, hi := int64(0), steps
	if xa, xb, w := int64(x0), int64(x0+dx), int64(fb.W); ya < y0b || yb < y0b || ya >= y1b || yb >= y1b ||
		xa < 0 || xb < 0 || xa >= w || xb >= w {
		// An end is off this band or off the screen: find the steps
		// that are on both.
		lo, hi = span(lo, hi, fsteps, y0, dy, y0b, y1b)
		lo, hi = span(lo, hi, fsteps, x0, dx, 0, w)
	}
	zb, pix, w := fb.Z, fb.Pix, fb.W
	ch, v, add := k.ch, k.val, k.add
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
		if b := &pix[3*i+ch]; add {
			*b = uint8(min(uint(*b)+uint(v), 255))
		} else {
			*b = v
		}
	}
}

// span narrows steps [lo, hi] to those whose coordinate v0 + s/steps*dv
// truncates into [from, to). coord is the float32 expression the raster
// loop itself evaluates, and each operation in it is monotone in s under
// IEEE rounding, so the steps that land inside are one interval and two
// binary searches find it exactly: the loop needs no per-pixel bounds
// test, and a segment that projects to 10^7 pixels costs ~50 probes, not
// a walk.
func span(lo, hi int64, steps, v0, dv float32, from, to int64) (int64, int64) {
	// Orient so the truncated coordinate g(s) = sign*coord(s) does not
	// decrease with s; from <= c < to becomes 1-to <= -c < 1-from.
	sign := int64(1)
	if dv < 0 {
		sign, from, to = -1, 1-to, 1-from
	}
	// first returns the least s in [l, hi] with g(s) >= bound, or hi+1.
	first := func(l, bound int64) int64 {
		for h := hi; l <= h; {
			if m := l + (h-l)/2; sign*coord(m, steps, v0, dv) >= bound {
				h = m - 1
			} else {
				l = m + 1
			}
		}
		return l
	}
	lo = first(lo, from)
	return lo, first(lo, to) - 1
}

// coord is the pixel coordinate of step s along one axis.
func coord(s int64, steps, v0, dv float32) int64 {
	t := float32(s) / steps
	return int64(v0 + t*dv)
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}
