//go:build !amd64

package wire

import "repro/internal/vmath"

func quantPairs(dst []byte, pts []vmath.Vec3, x, y, z axis) {
	quantPointsGo(dst, pts, x, y, z)
}

func dequantPairs(pts []vmath.Vec3, src []byte, x, y, z axis) {
	dequantPointsGo(pts, src, x, y, z)
}
