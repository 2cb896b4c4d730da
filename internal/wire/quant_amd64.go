package wire

import "repro/internal/vmath"

// quantPairs and dequantPairs are the SSE2 bodies of PutQuantPoints and
// the decoder's point loop (quant_amd64.s), over the largest even number
// of points: len(pts) &^ 1. They check no bounds: their callers slice
// dst and src to fit.

//go:noescape
func quantPairs(dst []byte, pts []vmath.Vec3, x, y, z axis)

//go:noescape
func dequantPairs(pts []vmath.Vec3, src []byte, x, y, z axis)
