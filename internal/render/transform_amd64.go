package render

import "repro/internal/vmath"

// transformVertsArch is transformVerts's SSE2 body
// (transform_amd64.s). It checks no bounds: transformVerts has checked
// out's length against pts.
//
//go:noescape
func transformVertsArch(m *vmath.Mat4, vp viewport, pts []vmath.Vec3, out []vert)
