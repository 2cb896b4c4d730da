package server

// Live steering must survive the cluster tier: the steering lock is
// held by origin-side session id, and steering commands ride frames, so
// every hop must carry them to the origin on the session's pinned
// upstream leg.

import (
	"encoding/binary"
	"testing"

	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// TestRelaySteering drives a steering grab + parameter change from one
// workstation, then the same from a rival, both behind two relay hops:
// the holder's change must land at the origin under its origin-side
// session id, and the rival's must bounce off the lock.
func TestRelaySteering(t *testing.T) {
	origin := plainData.server(t, 0, 0)
	_, midDial := startRelayNode(t, serveDial(origin.Dlib(), netsim.Link{}))
	_, leafDial := startRelayNode(t, midDial)

	connect := func() *dlib.Client {
		t.Helper()
		conn, err := leafDial()
		if err != nil {
			t.Fatal(err)
		}
		c := dlib.NewClient(conn)
		t.Cleanup(func() { c.Close() })
		return c
	}
	steer := func(c *dlib.Client, u, re, taper float32) {
		t.Helper()
		if _, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(wire.ClientUpdate{
			Commands: []wire.Command{
				{Kind: wire.CmdSteerGrab},
				{Kind: wire.CmdSteer, P0: vmath.V3(u, re, taper)},
			},
		})); err != nil {
			t.Fatal(err)
		}
	}
	holder, rival := connect(), connect()
	steer(holder, 2.5, 150, 0.5)
	steer(rival, 1.5, 500, 0.6)

	st := origin.Env().Steer()
	if want := (env.SteerParams{InflowU: 2.5, Reynolds: 150, Taper: 0.5}); st.Params != want {
		t.Errorf("steer params = %+v, want the holder's %+v", st.Params, want)
	}
	if st.Version != 1 {
		t.Errorf("steering version %d, want 1: the holder's change lands, the rival's bounces", st.Version)
	}
	id, err := holder.Call(wire.ProcWhoAmI, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(id) != 8 || st.Holder != int64(binary.LittleEndian.Uint64(id)) {
		t.Errorf("steering lock held by %d, want the holder's origin session %x", st.Holder, id)
	}
}
