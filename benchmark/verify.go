package main

import (
	"fmt"
	"math"

	"repro/internal/vmath"
	"repro/internal/wire"
)

// verifyRounds is how much of each workload's script is replayed
// against the reference server, and verifyLead how many of those rounds
// are the last of the warm-up. The rest are the first measured rounds,
// enough of them to reach playback's first seek (round period/2 = 31)
// and the cold loads after it.
const (
	verifyRounds = 64
	verifyLead   = 8
)

// verifyWindow returns the script rounds [from, to) that verify replays.
func verifyWindow(sc *script) (from, to int) {
	from = -min(verifyLead, sc.warm)
	return from, min(from+verifyRounds, sc.rounds)
}

// verify replays a window of the script — the end of the warm-up and
// the start of the measured rounds — through a fresh stack under test
// and through the reference stack (scalar engine, codec v1, no
// governor, no relays, no cache or prefetch), frame for frame, and
// compares what each workstation decoded: rake for rake, line for
// line, point for point, within the quantizer's worst-case error. It
// returns the number of frames compared and a description of every
// mismatching frame.
func verify(w *workload, ds *dataset, sc *script) (checked int, mismatches []string, err error) {
	test, err := buildStack(w, ds, stackOpts{})
	if err != nil {
		return 0, nil, fmt.Errorf("verify: stack under test: %w", err)
	}
	defer test.close()
	ref, err := buildStack(w, ds, stackOpts{reference: true})
	if err != nil {
		return 0, nil, fmt.Errorf("verify: reference stack: %w", err)
	}
	defer ref.close()

	q := test.ws[0].Info().Quantizer().MaxError()
	tol := vmath.Vec3{X: q.X + 1e-4, Y: q.Y + 1e-4, Z: q.Z + 1e-4}

	for _, s := range []*stack{test, ref} {
		for _, c := range sc.scene {
			s.ws[0].Queue(c)
		}
	}
	from, to := verifyWindow(sc)
	for i := from; i < to; i++ {
		for ws := range test.ws {
			in := sc.at(ws, i)
			for _, s := range []*stack{test, ref} {
				if _, _, err := s.oneFrame(ws, in, -1); err != nil {
					return checked, mismatches, fmt.Errorf("verify: round %d workstation %d: %w", i, ws, err)
				}
			}
			got, _ := test.ws[ws].Latest()
			want, _ := ref.ws[ws].Latest()
			checked++
			if msg := compareReplies(got, want, tol); msg != "" {
				mismatches = append(mismatches, fmt.Sprintf("verify: round %d workstation %d: %s", i, ws, msg))
			}
			if (i-from)%16 == 15 {
				if lit := test.ws[ws].Framebuffer().CountLit(1); lit < litFloor {
					mismatches = append(mismatches, fmt.Sprintf("verify: round %d workstation %d: %d lit pixels", i, ws, lit))
				}
			}
		}
	}
	return checked, mismatches, nil
}

func near(a, b, tol vmath.Vec3) bool {
	return math.Abs(float64(a.X-b.X)) <= float64(tol.X) &&
		math.Abs(float64(a.Y-b.Y)) <= float64(tol.Y) &&
		math.Abs(float64(a.Z-b.Z)) <= float64(tol.Z)
}

// comparePoints returns "" when the polylines match within tol, or how
// they differ.
func comparePoints(got, want []vmath.Vec3, tol vmath.Vec3) string {
	if len(got) != len(want) {
		return fmt.Sprintf("has %d points, reference %d", len(got), len(want))
	}
	for i := range got {
		if !near(got[i], want[i], tol) {
			return fmt.Sprintf("point %d is %v, reference %v", i, got[i], want[i])
		}
	}
	return ""
}

// compareReplies returns "" when the decoded geometry of got matches
// the reference's, or the first difference.
func compareReplies(got, want wire.FrameReply, tol vmath.Vec3) string {
	if got.Time.Current != want.Time.Current {
		return fmt.Sprintf("time %v, reference %v", got.Time.Current, want.Time.Current)
	}
	if got.Degraded != 0 {
		return fmt.Sprintf("degraded byte %d", got.Degraded)
	}
	if len(got.Geometry) != len(want.Geometry) {
		return fmt.Sprintf("%d rakes of geometry, reference %d", len(got.Geometry), len(want.Geometry))
	}
	for gi, g := range got.Geometry {
		r := want.Geometry[gi]
		if g.Rake != r.Rake || g.Tool != r.Tool || len(g.Lines) != len(r.Lines) {
			return fmt.Sprintf("geometry %d is rake %d tool %d with %d lines, reference rake %d tool %d with %d",
				gi, g.Rake, g.Tool, len(g.Lines), r.Rake, r.Tool, len(r.Lines))
		}
		for li := range g.Lines {
			if msg := comparePoints(g.Lines[li], r.Lines[li], tol); msg != "" {
				return fmt.Sprintf("rake %d line %d %s", g.Rake, li, msg)
			}
		}
	}
	if (got.Tools == nil) != (want.Tools == nil) {
		return "tool section present on one side only"
	}
	if got.Tools != nil {
		if len(got.Tools.Geoms) != len(want.Tools.Geoms) {
			return fmt.Sprintf("%d tool geometries, reference %d", len(got.Tools.Geoms), len(want.Tools.Geoms))
		}
		for gi, g := range got.Tools.Geoms {
			r := want.Tools.Geoms[gi]
			if g.Tool != r.Tool {
				return fmt.Sprintf("tool geometry %d is kind %d, reference %d", gi, g.Tool, r.Tool)
			}
			if msg := comparePoints(g.Points, r.Points, tol); msg != "" {
				return fmt.Sprintf("tool %d %s", g.Tool, msg)
			}
		}
	}
	return ""
}
