package render

import (
	"repro/internal/vmath"
)

// Renderer rasterizes 3-D lines and points into a framebuffer through
// a model-view-projection transform.
type Renderer struct {
	FB *Framebuffer
	// y0, y1 bound the rows this renderer writes, [y0, y1): the whole
	// framebuffer, or one of RenderAnaglyph's bands.
	y0, y1 int
	mask   ChannelMask
	mvp    vmath.Mat4
	// Additive selects saturating-add blending (smoke) instead of
	// replace.
	Additive bool

	// depth cueing state (see depthcue.go).
	cueOn    bool
	cueFloor float32

	// list, when set, makes this the Renderer a Scene records through:
	// draw calls go on the list instead of the framebuffer, under
	// transform mvpIdx (see run.mvp).
	list   *DisplayList
	mvpIdx int32
}

// NewRenderer wraps a framebuffer with an identity transform and full
// write mask.
func NewRenderer(fb *Framebuffer) *Renderer {
	return &Renderer{FB: fb, y1: fb.H, mask: MaskAll, mvp: vmath.Identity()}
}

// SetCamera sets the transform as projection * view.
func (r *Renderer) SetCamera(view, proj vmath.Mat4) { r.SetMVP(proj.Mul(view)) }

// SetMVP sets the full transform directly.
func (r *Renderer) SetMVP(m vmath.Mat4) {
	r.mvp = m
	if r.list != nil {
		r.list.mvps = append(r.list.mvps, m)
		r.mvpIdx = int32(len(r.list.mvps))
	}
}

// SetMask sets the channel writemask for subsequent draws.
func (r *Renderer) SetMask(m ChannelMask) { r.mask = m }

// ink is what one draw call writes per pixel, resolved once from the
// color, the writemask, the blend mode and the depth cue instead of
// per pixel. Byte j of a pixel, for j in [lo, hi), becomes
// min(old&keep[j] + val[j], 255): an additive draw (smoke) keeps every
// bit and saturate-adds, a replacing draw keeps none, and a channel the
// mask protects inside the range keeps every bit and adds nothing.
type ink struct {
	lo, hi    int
	keep, val [3]uint8
	// base is val before depth cueing, which rescales val per pixel
	// (depthcue.go); cue is the intensity lost between the near and
	// far planes, 0 when cueing is off.
	base [3]uint8
	cue  float32
	// store marks an ink whose byte does not depend on the pixel it
	// lands on: one channel, replaced, uncued — each anaglyph eye of a
	// non-additive draw. The raster loop stores val[lo] without loading
	// the byte it overwrites.
	store bool
}

func (r *Renderer) ink(c Color) ink {
	k := ink{lo: 3, keep: [3]uint8{0xFF, 0xFF, 0xFF}}
	if r.cueOn {
		k.cue = 1 - r.cueFloor
	}
	for j, v := range [3]uint8{c.R, c.G, c.B} {
		if r.mask&(1<<j) != 0 {
			k.lo, k.hi = min(k.lo, j), j+1
			k.val[j], k.base[j] = v, v
			if !r.Additive {
				k.keep[j] = 0
			}
		}
	}
	k.store = k.hi == k.lo+1 && k.keep[k.lo] == 0 && k.cue == 0
	return k
}

// write puts the ink on the pixel whose bytes start at pix[p].
func (k *ink) write(pix []uint8, p int) {
	for j := k.lo; j < k.hi; j++ {
		b := &pix[p+j]
		*b = uint8(min(uint(*b&k.keep[j])+uint(k.val[j]), 255))
	}
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

// onScreen is the vertex at NDC (x, y, z): the one place the
// NDC-to-pixel arithmetic lives.
func (vp viewport) onScreen(x, y, z, w float32) vert {
	return vert{
		ndc: vmath.Vec3{X: x, Y: y, Z: z},
		w:   w,
		sx:  (x + 1) / 2 * vp.w,
		sy:  (1 - y) / 2 * vp.h,
	}
}

// divide is a line vertex: the transformed point p, w divided by w.
func (vp viewport) divide(p vmath.Vec3, w float32) vert {
	return vp.onScreen(p.X/w, p.Y/w, p.Z/w, w)
}

// pointVert is a point's vertex. (Points multiply by 1/w where line
// vertices divide by w; the pinned frames hold both roundings.)
func (vp viewport) pointVert(p vmath.Vec3, w float32) vert {
	if w < nearEps {
		return vert{w: w}
	}
	inv := 1 / w
	return vp.onScreen(p.X*inv, p.Y*inv, p.Z*inv, w)
}

const nearEps = 1e-5

// Point draws a single 3-D point.
func (r *Renderer) Point(p vmath.Vec3, c Color) {
	if r.list != nil {
		r.list.add(r, kindPoints, r.list.keep(p), c)
		return
	}
	k := r.ink(c)
	v := r.viewport().pointVert(r.mvp.TransformPointW(p))
	r.plot(&v, &k)
}

// Points draws many points.
func (r *Renderer) Points(pts []vmath.Vec3, c Color) {
	if r.list != nil {
		r.list.add(r, kindPoints, pts, c)
		return
	}
	k, vp := r.ink(c), r.viewport()
	for _, p := range pts {
		v := vp.pointVert(r.mvp.TransformPointW(p))
		r.plot(&v, &k)
	}
}

// plot draws a transformed point if it is in view, on r's rows and not
// behind what is already there.
func (r *Renderer) plot(v *vert, k *ink) {
	x, y, z := v.ndc.X, v.ndc.Y, v.ndc.Z
	if v.w < nearEps || x < -1 || x > 1 || y < -1 || y > 1 || z < -1 || z > 1 {
		return
	}
	fb := r.FB
	px, py := int(v.sx), int(v.sy)
	// A NaN coordinate passes the comparisons above; its truncation is
	// out of range (or 0) on every GOARCH.
	if px < 0 || px >= fb.W || py < r.y0 || py >= r.y1 {
		return
	}
	if i := py*fb.W + px; !(z > fb.Z[i]) {
		fb.Z[i] = z
		if k.cue != 0 {
			k.shade(z)
		}
		k.write(fb.Pix, 3*i)
	}
}

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
// with; only steps that cannot write are skipped, and only an ink that
// keeps bits reads the pixel it writes.
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
	// A store ink's one byte and its place in the pixel (see ink.store).
	store, ch, v := k.store, k.lo, uint8(0)
	if store {
		v = k.val[ch]
	}
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
		if store {
			pix[3*i+ch] = v
			continue
		}
		if k.cue != 0 {
			k.shade(z)
		}
		k.write(pix, 3*i)
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
