package grid

// interp3x4 is Interp3x4's SSE2 body (interp4_amd64.s). It checks no
// bounds: Interp3x4 has checked the arrays' lengths against c.
//
//go:noescape
func interp3x4(u, v, w []float32, c *Cells4, out *[3][4]float32)
