package server

// Live steering must survive the cluster tier: the steering lock is
// held by origin-side session id and the status poll is its own dlib
// procedure, so a relay that forwards frames but not ProcSteer would
// silently strand every steering HUD behind it.

import (
	"testing"

	"repro/internal/dlib"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// TestRelaySteerStatus drives a steering grab + parameter change from
// one workstation and polls SteerStatus from another, both behind two
// relay hops: the poll must reach the origin on the session's pinned
// upstream leg and report the accepted parameters and a live holder.
func TestRelaySteerStatus(t *testing.T) {
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
	holder, watcher := connect(), connect()

	if _, err := holder.Call(wire.ProcFrame, wire.EncodeClientUpdate(wire.ClientUpdate{
		Commands: []wire.Command{
			{Kind: wire.CmdSteerGrab},
			{Kind: wire.CmdSteer, P0: vmath.V3(2.5, 150, 0.5)},
		},
	})); err != nil {
		t.Fatal(err)
	}

	rep, err := watcher.Call(wire.ProcSteer, nil)
	if err != nil {
		t.Fatalf("ProcSteer through two relay hops: %v", err)
	}
	st, err := wire.DecodeSteerStatus(rep)
	if err != nil {
		t.Fatal(err)
	}
	if st.InflowU != 2.5 || st.Reynolds != 150 || st.Taper != 0.5 {
		t.Errorf("steer params = (%g, %g, %g), want (2.5, 150, 0.5)", st.InflowU, st.Reynolds, st.Taper)
	}
	if st.Holder == 0 {
		t.Error("steering lock holder not visible through the relay")
	}
	if st.Version == 0 {
		t.Error("steering version did not advance — the CmdSteer was dropped")
	}

	// The holder's own poll sees the same state: both sessions route to
	// the same pinned upstream.
	rep2, err := holder.Call(wire.ProcSteer, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := wire.DecodeSteerStatus(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Errorf("holder sees %+v, watcher sees %+v — sessions diverged", st2, st)
	}
}
