package server

import (
	"math"
	"testing"

	"repro/internal/vmath"
	"repro/internal/wire"
)

// FuzzSteerCommand attacks the live-steering surface: arbitrary
// grab/steer/release sequences with hostile parameter triples — NaN
// Reynolds, negative inlet velocity, absurd tapers — arriving as
// well-formed frames. The invariant is the solver-safety contract:
// whatever the sequence, the environment's steering parameters are
// either untouched or a triple validSteerParams accepts, the steering
// version never goes backwards, and the frame path stays healthy. A
// violation means a hostile value slipped past the bounds check on its
// way to the diffusion step, where a NaN would poison the whole
// velocity field.
func FuzzSteerCommand(f *testing.F) {
	nan := math.Float32frombits(0x7fc00000)
	inf := math.Float32frombits(0x7f800000)
	f.Add(float32(2), float32(300), float32(0.8), uint8(1), uint8(0))
	f.Add(float32(-5), float32(300), float32(0.8), uint8(1), uint8(0)) // negative velocity
	f.Add(float32(2), nan, float32(0.8), uint8(1), uint8(0))           // NaN Reynolds
	f.Add(float32(2), float32(300), float32(1e30), uint8(1), uint8(0)) // huge taper
	f.Add(float32(2), inf, float32(0.8), uint8(0), uint8(1))
	f.Add(float32(0), float32(0), float32(0), uint8(3), uint8(3))

	f.Fuzz(func(t *testing.T, inflow, reynolds, taper float32, grab, release uint8) {
		s, ctx := fuzzServer(t)
		before := s.Env().Steer()

		// Build the steer exchange the bits describe: an optional grab,
		// the parameter change, an optional release — all in one frame,
		// the way vwload's steer phase sends them.
		var cmds []wire.Command
		if grab&1 != 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdSteerGrab})
		}
		cmds = append(cmds, wire.Command{Kind: wire.CmdSteer, P0: vmath.V3(inflow, reynolds, taper)})
		if release&1 != 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdSteerRelease})
		}
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{Commands: cmds}))

		st := s.Env().Steer()
		if st.Params != before.Params && !validSteerParams(st.Params) {
			t.Fatalf("hostile steer landed out-of-envelope params: %+v", st.Params)
		}
		if st.Version < before.Version {
			t.Fatalf("steering version went backwards: %d -> %d", before.Version, st.Version)
		}

		// And the frame path is still healthy afterwards.
		frameNoPanic(t, s, ctx, wire.EncodeClientUpdate(wire.ClientUpdate{
			Head: vmath.Identity(), Hand: vmath.V3(2, 0, 0),
		}))
		checkEnvInvariants(t, s)
	})
}
