package grid

import (
	"fmt"

	"repro/internal/vmath"
)

// Multiblock is a composite of several curvilinear grids ("blocks") —
// the paper's §7 future work: "extension of the computational
// algorithms to handle multiple grid data sets". Complex vehicle
// geometries (the hovering Harrier the paper mentions) were meshed as
// overlapping or abutting blocks; a particle integrated through the
// flow must hop between blocks as it leaves one and enters another.
//
// A position in a multiblock dataset is a BlockCoord: a block index
// plus a grid coordinate within that block.
type Multiblock struct {
	Blocks []*Grid
	// bounds caches each block's physical bounding box for fast
	// candidate rejection during point location.
	bounds []vmath.AABB
}

// NewMultiblock validates and assembles the composite.
func NewMultiblock(blocks ...*Grid) (*Multiblock, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("grid: multiblock needs at least one block")
	}
	m := &Multiblock{Blocks: blocks, bounds: make([]vmath.AABB, len(blocks))}
	for i, b := range blocks {
		if err := b.validate(); err != nil {
			return nil, fmt.Errorf("grid: block %d: %w", i, err)
		}
		m.bounds[i] = b.Bounds()
	}
	return m, nil
}

// NumBlocks returns the block count.
func (m *Multiblock) NumBlocks() int { return len(m.Blocks) }

// Bounds returns the union physical bounding box.
func (m *Multiblock) Bounds() vmath.AABB {
	b := m.bounds[0]
	for _, bb := range m.bounds[1:] {
		b = b.Extend(bb.Min).Extend(bb.Max)
	}
	return b
}

// BlockCoord locates a point in the composite: which block, and where
// in that block's computational space.
type BlockCoord struct {
	Block int
	GC    vmath.Vec3
}

// PhysAt returns the physical position of a block coordinate.
func (m *Multiblock) PhysAt(bc BlockCoord) vmath.Vec3 {
	return m.Blocks[bc.Block].PhysAt(bc.GC)
}

// Locate finds the block containing physical point p, preferring the
// guess block (particles usually stay where they were last frame, so
// the common case is one Newton solve). Returns errNotFound when no
// block contains p.
func (m *Multiblock) Locate(p vmath.Vec3, guess BlockCoord) (BlockCoord, error) {
	// Try the guess block first with the guess coordinate.
	order := make([]int, 0, len(m.Blocks))
	if guess.Block >= 0 && guess.Block < len(m.Blocks) {
		order = append(order, guess.Block)
	}
	for i := range m.Blocks {
		if i != guess.Block {
			order = append(order, i)
		}
	}
	for _, bi := range order {
		// Cheap reject on the block's bounding box, slightly inflated
		// because curvilinear boundaries are not axis aligned.
		bb := m.bounds[bi]
		margin := bb.Size().Scale(0.05)
		wide := vmath.AABB{Min: bb.Min.Sub(margin), Max: bb.Max.Add(margin)}
		if !wide.Contains(p) {
			continue
		}
		g := m.Blocks[bi]
		start := guess.GC
		if bi != guess.Block {
			start = vmath.Vec3{
				X: float32(g.NI-1) / 2,
				Y: float32(g.NJ-1) / 2,
				Z: float32(g.NK-1) / 2,
			}
		}
		gc, err := g.PhysToGrid(p, start)
		if err == nil {
			return BlockCoord{Block: bi, GC: gc}, nil
		}
	}
	return BlockCoord{}, errNotFound
}

// Transfer attempts to continue a path that left block bc.Block at
// physical position p into another block: the block-hopping step of
// multiblock integration. The origin block is excluded from the
// search.
func (m *Multiblock) Transfer(p vmath.Vec3, from int) (BlockCoord, error) {
	for bi, g := range m.Blocks {
		if bi == from {
			continue
		}
		bb := m.bounds[bi]
		margin := bb.Size().Scale(0.05)
		wide := vmath.AABB{Min: bb.Min.Sub(margin), Max: bb.Max.Add(margin)}
		if !wide.Contains(p) {
			continue
		}
		center := vmath.Vec3{
			X: float32(g.NI-1) / 2,
			Y: float32(g.NJ-1) / 2,
			Z: float32(g.NK-1) / 2,
		}
		gc, err := g.PhysToGrid(p, center)
		if err == nil {
			return BlockCoord{Block: bi, GC: gc}, nil
		}
	}
	return BlockCoord{}, errNotFound
}
