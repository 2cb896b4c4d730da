// Multiblock: the paper's §7 future work — "extension of the
// computational algorithms to handle multiple grid data sets" —
// demonstrated on a two-block dataset. A streamline seeded in the
// upstream block crosses the overlap seam and continues through the
// downstream block, with the integrator hopping between the blocks'
// computational spaces.
package main

import (
	"fmt"
	"log"

	"repro/internal/field"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
)

func main() {
	log.SetFlags(0)

	// Two abutting Cartesian blocks along X with a half-cell overlap,
	// the way multiblock meshes join: upstream [-20, 0.5], downstream
	// [0, 20], both spanning [-8, 8]^2 in Y/Z.
	up, err := grid.NewCartesian(21, 17, 17, vmath.AABB{
		Min: vmath.V3(-20, -8, -8), Max: vmath.V3(0.5, 8, 8),
	})
	if err != nil {
		log.Fatal(err)
	}
	down, err := grid.NewCartesian(21, 17, 17, vmath.AABB{
		Min: vmath.V3(0, -8, -8), Max: vmath.V3(20, 8, 8),
	})
	if err != nil {
		log.Fatal(err)
	}
	m, err := grid.NewMultiblock(up, down)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multiblock: %d blocks, union bounds %v..%v\n",
		m.NumBlocks(), m.Bounds().Min, m.Bounds().Max)

	// One analytic flow sampled onto both blocks (each block converts
	// to its own grid coordinates): an ABC-perturbed free stream.
	fl := blended{}
	fields := make([]*field.Field, m.NumBlocks())
	for i, g := range m.Blocks {
		fields[i] = flow.Sample(fl, g, 0)
		if err := field.ToGridCoords(fields[i], g); err != nil {
			log.Fatal(err)
		}
	}
	mf, err := integrate.NewMultiField(m, fields)
	if err != nil {
		log.Fatal(err)
	}

	// Seed a rake of streamlines in the upstream block.
	o := integrate.Options{Method: integrate.RK2, StepSize: 0.5, MaxSteps: 300, MinSpeed: 1e-7}
	fmt.Println("\nstreamlines (seeded upstream, integrated across the seam):")
	for _, y := range []float32{-4, -2, 0, 2, 4} {
		seed := vmath.V3(-18, y, 0)
		path, err := integrate.MultiStreamline(mf, seed, o)
		if err != nil {
			log.Fatal(err)
		}
		last := path.Points[len(path.Points)-1]
		fmt.Printf("  seed y=%+5.1f: %3d points, blocks %v, ends at (%6.2f, %6.2f, %6.2f)\n",
			y, len(path.Points), path.Blocks, last.X, last.Y, last.Z)
		if len(path.Blocks) < 2 {
			log.Fatalf("streamline did not hop blocks — seam transfer broken")
		}
	}
	fmt.Println("\nevery streamline crossed from block 0 into block 1 through the overlap.")
}

// blended is a free stream with a gentle swirl so paths are not
// straight lines.
type blended struct{}

func (blended) Name() string { return "blended" }

func (blended) VelocityAt(p vmath.Vec3, t float32) vmath.Vec3 {
	abc := flow.ABC{A: 0.3, B: 0.2, C: 0.25}
	v := abc.VelocityAt(p.Scale(0.3), t)
	return vmath.V3(1.2, 0, 0).Add(v.Scale(0.4))
}
