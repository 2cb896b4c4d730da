package server

import (
	"math"
	"testing"

	"repro/internal/env"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// FuzzToolCommand attacks the shared-tool command surface: arbitrary
// grab/set/release sequences against all three tools with hostile
// parameters — NaN iso levels, out-of-range plane axes and fractions,
// absurd Q thresholds, unknown command kinds. The invariant is the
// extraction-safety contract: whatever arrives, the environment's
// tool parameters are either untouched or values the validators
// accept (a NaN level would poison the marching pass; an out-of-range
// axis would index past the grid), tool versions never go backwards,
// and the frame path stays healthy afterwards.
func FuzzToolCommand(f *testing.F) {
	nan := math.Float32frombits(0x7fc00000)
	inf := math.Float32frombits(0x7f800000)
	f.Add(float32(0.8), uint8(0), float32(0.5), float32(0.01), uint8(7), uint8(0))
	f.Add(nan, uint8(1), float32(0.25), float32(0.01), uint8(7), uint8(0)) // NaN iso level
	f.Add(inf, uint8(2), float32(0.75), float32(0.02), uint8(1), uint8(1)) // Inf iso level
	f.Add(float32(1e30), uint8(0), float32(0.5), float32(-1e30), uint8(7), uint8(0))
	f.Add(float32(0.8), uint8(3), float32(0.5), float32(0.01), uint8(2), uint8(0))   // axis out of range
	f.Add(float32(0.8), uint8(255), float32(-2), float32(0.01), uint8(2), uint8(0))  // hostile axis + frac
	f.Add(float32(0.8), uint8(1), nan, inf, uint8(6), uint8(2))                      // NaN frac, Inf threshold
	f.Add(float32(0.5), uint8(0), float32(2), float32(0.01), uint8(255), uint8(255)) // unknown kinds

	f.Fuzz(func(t *testing.T, level float32, axis uint8, frac, threshold float32, tools, extra uint8) {
		s, ctx := fuzzServer(t)
		before := s.Env().Tools()

		// Build the tool exchange the bits describe: grab+set for each
		// tool selected by the low bits of tools, optional releases, and
		// — when extra has high bits — a command with an unknown kind,
		// the forward-compatibility path.
		var cmds []wire.Command
		if tools&1 != 0 {
			cmds = append(cmds,
				wire.Command{Kind: wire.CmdIsoGrab},
				wire.Command{Kind: wire.CmdIsoSet, Flag: tools & 1, Value: level})
		}
		if tools&2 != 0 {
			cmds = append(cmds,
				wire.Command{Kind: wire.CmdPlaneGrab},
				wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: axis, Value: frac})
		}
		if tools&4 != 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdVortexToggle, Flag: 1, Value: threshold})
		}
		if extra&1 != 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdIsoRelease})
		}
		if extra&2 != 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdPlaneRelease})
		}
		if extra&0xf0 != 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdKind(extra), Value: level, Grab: axis})
		}
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{Commands: cmds}))

		for i, tool := range s.Env().Tools() {
			id, was := env.ToolID(i+1), before[i]
			if tool.Params != was.Params && !validToolParams(id, tool.Params) {
				t.Fatalf("hostile %v params landed: %+v", id, tool.Params)
			}
			if tool.Version < was.Version {
				t.Fatalf("%v version went backwards: %d -> %d", id, was.Version, tool.Version)
			}
		}

		// The frame path is still healthy afterwards — including a
		// recompute that marches whatever parameters were accepted.
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{
			Head: vmath.Identity(), Hand: vmath.V3(2, 0, 0),
		}))
		checkEnvInvariants(t, s)
	})
}
