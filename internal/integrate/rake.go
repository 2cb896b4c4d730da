package integrate

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// ToolKind selects which visualization a rake emits (§2.1).
type ToolKind uint8

const (
	// ToolStreamline shows integral curves of the instantaneous field.
	ToolStreamline ToolKind = iota
	// ToolParticlePath shows the path of single particles through time.
	ToolParticlePath
	// ToolStreakline shows smoke injected continuously at the seeds.
	ToolStreakline
)

func (k ToolKind) String() string {
	switch k {
	case ToolStreamline:
		return "streamline"
	case ToolParticlePath:
		return "particle-path"
	case ToolStreakline:
		return "streakline"
	default:
		return fmt.Sprintf("ToolKind(%d)", uint8(k))
	}
}

// GrabPoint identifies where a user grabbed a rake: "grabbed at one of
// three points: center for rigid translation of the rake, or at either
// end for movement of that end" (§2.1).
type GrabPoint uint8

const (
	// GrabNone means the rake is free.
	GrabNone GrabPoint = iota
	// GrabCenter translates the whole rake rigidly.
	GrabCenter
	// GrabEnd0 moves endpoint P0, pivoting about P1.
	GrabEnd0
	// GrabEnd1 moves endpoint P1, pivoting about P0.
	GrabEnd1
)

func (p GrabPoint) String() string {
	switch p {
	case GrabNone:
		return "none"
	case GrabCenter:
		return "center"
	case GrabEnd0:
		return "end0"
	case GrabEnd1:
		return "end1"
	default:
		return fmt.Sprintf("GrabPoint(%d)", uint8(p))
	}
}

// Rake is a line of seed points between two physical-space endpoints.
// Several rakes of different tool types may be active simultaneously;
// the environment tracks who (which user) holds each one.
type Rake struct {
	ID       int32
	P0, P1   vmath.Vec3 // physical-space endpoints
	NumSeeds int
	Tool     ToolKind
}

// NewRake builds a rake with validation.
func NewRake(id int32, p0, p1 vmath.Vec3, numSeeds int, tool ToolKind) (*Rake, error) {
	if numSeeds < 1 {
		return nil, fmt.Errorf("integrate: rake needs at least one seed, got %d", numSeeds)
	}
	return &Rake{ID: id, P0: p0, P1: p1, NumSeeds: numSeeds, Tool: tool}, nil
}

// seeds returns the physical-space seed points, evenly spaced from P0
// to P1 inclusive. A single-seed rake seeds at the midpoint.
func (r *Rake) seeds() []vmath.Vec3 {
	out := make([]vmath.Vec3, r.NumSeeds)
	if r.NumSeeds == 1 {
		out[0] = r.P0.Lerp(r.P1, 0.5)
		return out
	}
	for i := range out {
		out[i] = r.P0.Lerp(r.P1, float32(i)/float32(r.NumSeeds-1))
	}
	return out
}

// Center returns the rake midpoint.
//
//vw:testonly
func (r *Rake) Center() vmath.Vec3 { return r.P0.Lerp(r.P1, 0.5) }

// NearestGrab returns which grab point is closest to hand position p
// and its distance, for gesture-driven grabbing. Ends win ties so the
// rake can always be reoriented.
func (r *Rake) NearestGrab(p vmath.Vec3) (GrabPoint, float32) {
	d0 := p.Dist(r.P0)
	d1 := p.Dist(r.P1)
	dc := p.Dist(r.Center())
	switch {
	case d0 <= d1 && d0 <= dc:
		return GrabEnd0, d0
	case d1 <= d0 && d1 <= dc:
		return GrabEnd1, d1
	default:
		return GrabCenter, dc
	}
}

// MoveGrab moves the rake according to where it is held: center moves
// both ends rigidly, an end moves only that end.
func (r *Rake) MoveGrab(gp GrabPoint, to vmath.Vec3) error {
	switch gp {
	case GrabCenter:
		delta := to.Sub(r.Center())
		r.P0 = r.P0.Add(delta)
		r.P1 = r.P1.Add(delta)
	case GrabEnd0:
		r.P0 = to
	case GrabEnd1:
		r.P1 = to
	case GrabNone:
		return fmt.Errorf("integrate: MoveGrab with GrabNone")
	default:
		return fmt.Errorf("integrate: unknown grab point %v", gp)
	}
	return nil
}

// SeedsGrid converts the rake's physical seeds to grid coordinates,
// dropping seeds that fall outside the grid. Conversion walks from the
// previous seed's location so coherent rakes locate quickly.
func (r *Rake) SeedsGrid(g *grid.Grid) []vmath.Vec3 {
	phys := r.seeds()
	out := make([]vmath.Vec3, 0, len(phys))
	guess := vmath.V3(float32(g.NI-1)/2, float32(g.NJ-1)/2, float32(g.NK-1)/2)
	for _, p := range phys {
		gc, err := g.PhysToGrid(p, guess)
		if err != nil {
			continue
		}
		out = append(out, gc)
		guess = gc
	}
	return out
}
