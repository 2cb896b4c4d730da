package render

import "repro/internal/vmath"

// transformVerts fills out[:len(pts)] with the line vertices of pts
// under m on viewport vp: what vp.divide(m.TransformPointW(p)) returns
// for each point, bit for bit. On amd64 it is one SSE2 pass that holds
// a vertex's x, y, z and w as the four elements of a vector, in the
// scalar expression's order of operations and without FMA; elsewhere
// it is transformVertsGo. It panics, with an index out of range, when
// out is shorter than pts.
//
//vw:hotpath
func transformVerts(m *vmath.Mat4, vp viewport, pts []vmath.Vec3, out []vert) {
	if len(pts) > 0 {
		_ = out[len(pts)-1]
	}
	transformVertsArch(m, vp, pts, out)
}

// transformVertsGo is transformVerts as a loop over divide and
// TransformPointW: the portable implementation, and the reference the
// amd64 one is tested against. The matrix is a local, as in the
// list's transform: read through m it would be reloaded for every
// vertex.
func transformVertsGo(m *vmath.Mat4, vp viewport, pts []vmath.Vec3, out []vert) {
	mm := *m
	out = out[:len(pts)]
	for j, p := range pts {
		out[j] = vp.divide(mm.TransformPointW(p))
	}
}
