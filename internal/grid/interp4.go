package grid

import "repro/internal/vmath"

// Cells4 is four located stencils: Locate's origin and fractions for
// each of four lanes, and the dimensions of the grid that located them.
// Its fields are unexported so only Locate4 builds one, which makes
// every origin a valid stencil origin for arrays of that grid's
// NumNodes: the amd64 Interp3x4 reads memory unchecked at those
// origins.
type Cells4 struct {
	fx, fy, fz [4]float32
	base       [4]int
	ni, nj     int
	nodes      int
}

// Locate4 is Locate at four positions: each lane is clamped into the
// computational domain and split into its cell, in Locate's arithmetic.
//
//vw:hotpath
func (g *Grid) Locate4(pos *[4]vmath.Vec3, c *Cells4) {
	c.ni, c.nj, c.nodes = g.NI, g.NJ, g.NumNodes()
	for l := range 4 {
		i0, fx := splitCoord(pos[l].X, g.NI)
		j0, fy := splitCoord(pos[l].Y, g.NJ)
		k0, fz := splitCoord(pos[l].Z, g.NK)
		c.base[l] = (k0*g.NJ+j0)*g.NI + i0
		c.fx[l], c.fy[l], c.fz[l] = fx, fy, fz
	}
}

// Interp3x4 is Interp3 at four located cells: out[0][l], out[1][l],
// out[2][l] are what Interp3(u, v, w, cell l) returns, bit for bit. On
// amd64 it is one SSE2 pass that interpolates the four lanes as the
// four elements of a vector, in Interp3's order of operations and
// without FMA; elsewhere it loops over Interp3. It panics, as Interp3
// does, when an array is shorter than the locating grid's NumNodes.
//
//vw:hotpath
func Interp3x4(u, v, w []float32, c *Cells4, out *[3][4]float32) {
	last := c.nodes - 1
	_, _, _ = u[last], v[last], w[last]
	interp3x4(u, v, w, c, out)
}

// interp3x4Go is Interp3x4 as a loop over Interp3: the portable
// implementation, and the reference the amd64 one is tested against.
func interp3x4Go(u, v, w []float32, c *Cells4, out *[3][4]float32) {
	g := Grid{NI: c.ni, NJ: c.nj}
	for l := range 4 {
		cell := Cell{Base: c.base[l], FX: c.fx[l], FY: c.fy[l], FZ: c.fz[l]}
		out[0][l], out[1][l], out[2][l] = g.Interp3(u, v, w, cell)
	}
}
