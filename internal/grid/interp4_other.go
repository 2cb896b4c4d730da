//go:build !amd64

package grid

func interp3x4(u, v, w []float32, c *Cells4, out *[3][4]float32) {
	interp3x4Go(u, v, w, c, out)
}
