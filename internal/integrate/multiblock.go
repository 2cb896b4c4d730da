package integrate

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/vmath"
)

// MultiField is one timestep of velocity data on a multiblock grid:
// one grid-coordinate field per block. It supports the paper's §7
// future work — "extension of the computational algorithms to handle
// multiple grid data sets".
type MultiField struct {
	M      *grid.Multiblock
	Fields []*field.Field
}

// NewMultiField validates block/field pairing.
func NewMultiField(m *grid.Multiblock, fields []*field.Field) (*MultiField, error) {
	if len(fields) != m.NumBlocks() {
		return nil, fmt.Errorf("integrate: %d fields for %d blocks", len(fields), m.NumBlocks())
	}
	for i, f := range fields {
		if !f.MatchesGrid(m.Blocks[i]) {
			return nil, fmt.Errorf("integrate: field %d dims %dx%dx%d do not match block %dx%dx%d",
				i, f.NI, f.NJ, f.NK, m.Blocks[i].NI, m.Blocks[i].NJ, m.Blocks[i].NK)
		}
		if f.Coords != field.GridCoords {
			return nil, fmt.Errorf("integrate: field %d not in grid coordinates", i)
		}
	}
	return &MultiField{M: m, Fields: fields}, nil
}

// MultiPath is the result of a multiblock integration: the path in
// physical coordinates (grid coordinates are block-local and
// meaningless across a hop) plus the sequence of blocks visited.
type MultiPath struct {
	Points []vmath.Vec3
	Blocks []int // blocks visited, in order, deduplicated
}

// MultiStreamline integrates a streamline from a physical seed point
// through a multiblock field, hopping blocks when the path leaves one:
// each step runs in the current block's grid coordinates (keeping the
// paper's §2.1 fast path), and on exit the last position transfers to
// whichever other block contains it.
func MultiStreamline(mf *MultiField, seedPhys vmath.Vec3, o Options) (MultiPath, error) {
	if err := o.Validate(); err != nil {
		return MultiPath{}, err
	}
	bc, err := mf.M.Locate(seedPhys, grid.BlockCoord{Block: 0})
	if err != nil {
		return MultiPath{}, fmt.Errorf("integrate: seed %v outside all blocks: %w", seedPhys, err)
	}
	path := MultiPath{
		Points: make([]vmath.Vec3, 0, o.MaxSteps+1),
		Blocks: []int{bc.Block},
	}
	path.Points = append(path.Points, mf.M.PhysAt(bc))

	for n := 0; n < o.MaxSteps; n++ {
		g := mf.M.Blocks[bc.Block]
		f := mf.Fields[bc.Block]
		sampler := SteadySampler{F: f, G: g}
		if sampler.SampleVelocity(bc.GC, 0).Len() < o.effectiveMinSpeed() {
			break
		}
		next := step(o.Method, sampler, bc.GC, 0, o.StepSize)
		if !next.IsFinite() {
			break
		}
		if g.InBounds(next) {
			bc.GC = next
			path.Points = append(path.Points, g.PhysAt(next))
			continue
		}
		// Exited the block: extrapolate the physical position of the
		// attempted step (clamped positions sit on the block face,
		// which overlapping neighbors also contain) and hop.
		exitPhys := g.PhysAt(g.ClampToBounds(next))
		hopped, err := mf.M.Transfer(exitPhys, bc.Block)
		if err != nil {
			break // left the whole composite domain
		}
		bc = hopped
		if path.Blocks[len(path.Blocks)-1] != bc.Block {
			path.Blocks = append(path.Blocks, bc.Block)
		}
		path.Points = append(path.Points, mf.M.PhysAt(bc))
	}
	return path, nil
}
