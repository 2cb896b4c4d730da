//go:build !amd64

package render

import "repro/internal/vmath"

func transformVertsArch(m *vmath.Mat4, vp viewport, pts []vmath.Vec3, out []vert) {
	transformVertsGo(m, vp, pts, out)
}
