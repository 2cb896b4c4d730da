package render

import "repro/internal/vmath"

// Immediate-mode drawing: a Renderer with no display list drawing each
// call at once, in call order, every vertex through the scalar
// transform. Product code draws only through the list; the tests keep
// this as the list's reference.

// drawNow draws scene on r at once: it records the scene's calls and
// draws each through polyline under r's eye and rows, with the blend
// the call was made with. A call the list cut at a slab boundary draws
// as its pieces, the same edges in the same order.
func drawNow(r *Renderer, scene Scene) {
	var dl DisplayList
	dl.recorder = Renderer{FB: r.FB, y1: r.FB.H, Additive: r.Additive, list: &dl}
	scene(&dl.recorder)
	for _, rn := range dl.runs {
		r.Additive = rn.additive
		switch rn.kind {
		case kindPolyline:
			r.polyline(rn.pts, rn.c)
		case kindTriangles:
			for i := 0; i+2 < len(rn.pts); i += 3 {
				tri := [4]vmath.Vec3{rn.pts[i], rn.pts[i+1], rn.pts[i+2], rn.pts[i]}
				r.polyline(tri[:], rn.c)
			}
		}
	}
	r.Additive = dl.recorder.Additive
}

// polyline draws pts now, the vertex two segments share carried from
// one to the next.
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
