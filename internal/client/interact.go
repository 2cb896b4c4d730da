package client

import (
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// interactor turns glove state into rake commands: making a fist near
// a rake grabs it at the nearest grab point (center or either end),
// holding the fist drags the grabbed point with the hand, opening the
// hand releases. The server still arbitrates conflicts; this only
// decides what this user is trying to do.
type interactor struct {
	holding  bool
	heldRake int32
	wasFist  bool
}

// grabRadius is how close, in world units, the hand must be to a grab
// point.
const grabRadius = 1.0

// commands returns the commands implied by this frame's pose given the
// latest known rake set.
func (in *interactor) commands(pose vr.Pose, rakes []wire.RakeState) []wire.Command {
	fist := pose.Gesture == vr.GestureFist
	defer func() { in.wasFist = fist }()

	switch {
	case fist && !in.wasFist && !in.holding:
		// Fist just closed: try to grab the nearest grab point.
		rakeID, grab, dist := nearestGrab(pose.Hand, rakes)
		if rakeID == 0 || dist > grabRadius {
			return nil
		}
		in.holding = true
		in.heldRake = rakeID
		return []wire.Command{
			{Kind: wire.CmdGrab, Rake: rakeID, Grab: uint8(grab)},
			{Kind: wire.CmdMove, Rake: rakeID, Pos: pose.Hand},
		}
	case fist && in.holding:
		// Drag.
		return []wire.Command{{Kind: wire.CmdMove, Rake: in.heldRake, Pos: pose.Hand}}
	case !fist && in.holding:
		// Open hand: release.
		id := in.heldRake
		in.holding = false
		in.heldRake = 0
		return []wire.Command{{Kind: wire.CmdRelease, Rake: id}}
	default:
		return nil
	}
}

// nearestGrab finds the closest grab point across all rakes.
func nearestGrab(hand vmath.Vec3, rakes []wire.RakeState) (int32, integrate.GrabPoint, float32) {
	var bestID int32
	bestGrab := integrate.GrabNone
	bestDist := float32(1e30)
	for _, rk := range rakes {
		r := integrate.Rake{ID: rk.ID, P0: rk.P0, P1: rk.P1, NumSeeds: int(rk.NumSeeds)}
		gp, d := r.NearestGrab(hand)
		if d < bestDist {
			bestID, bestGrab, bestDist = rk.ID, gp, d
		}
	}
	return bestID, bestGrab, bestDist
}
