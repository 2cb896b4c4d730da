package render

import "repro/internal/vmath"

// TransformLines is the display list's line transform for the
// package's external benchmarks: the returned func transforms pts under
// m for a w x h framebuffer, a slab at a time into a slab of its own,
// through transformVerts or, when portable is set, through
// transformVertsGo.
func TransformLines(portable bool, w, h int) func(m *vmath.Mat4, pts []vmath.Vec3) {
	vp, out := viewport{float32(w - 1), float32(h - 1)}, make([]vert, slabVerts)
	transform := transformVerts
	if portable {
		transform = transformVertsGo
	}
	return func(m *vmath.Mat4, pts []vmath.Vec3) {
		for len(pts) > 0 {
			n := min(len(pts), slabVerts)
			transform(m, vp, pts[:n], out)
			pts = pts[n:]
		}
	}
}
