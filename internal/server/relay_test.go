package server

// Cluster-tier behaviour beyond byte identity, which the golden corpus
// pins through one and two relay hops (corpus_test.go): encode-once
// fan-out, mixed-codec fleets, and routing across several upstreams.

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/dlib"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// serveDial returns a DialFunc producing in-process netsim connections
// served by d.
func serveDial(d *dlib.Server, link netsim.Link) dlib.DialFunc {
	return func() (net.Conn, error) {
		client, server := netsim.Pipe(link)
		go d.ServeConn(server)
		return client, nil
	}
}

// startRelayNode builds a relay over the given upstream dials and
// returns it with a downstream dial.
func startRelayNode(t *testing.T, upstreams ...dlib.DialFunc) (*relay.Relay, dlib.DialFunc) {
	t.Helper()
	r, err := relay.New(relay.Config{Upstreams: upstreams})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, serveDial(r.Dlib(), netsim.Link{})
}

// TestRelayEncodeOnceFanOut pins the cluster-tier scaling claim: with
// many workstations behind one relay, the origin encodes each round
// once and ships its bytes across the relay link once — every further
// downstream frame is served from the relay cache after a marker
// exchange.
func TestRelayEncodeOnceFanOut(t *testing.T) {
	const sessions = 8
	origin := plainData.server(t, 0, 0)
	r, dial := startRelayNode(t, serveDial(origin.Dlib(), netsim.Link{}))

	clients := make([]*dlib.Client, sessions)
	for i := range clients {
		clients[i] = connect(t, dial)
	}
	// Session 0 builds the scene; then every session frames once. Each
	// join adds a user to the environment (a version bump, so a fresh
	// round) — that churn is the warmup, not the claim.
	rawFrame(t, clients[0], wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 10, 4), 6, integrate.ToolStreamline),
	}})
	for _, c := range clients[1:] {
		rawFrame(t, c, wire.ClientUpdate{})
	}
	// The last joins' user adds are pending until the next recompute
	// (a join itself serves the current round); one more sweep settles
	// every session on the final round before measuring.
	for _, c := range clients {
		rawFrame(t, c, wire.ClientUpdate{})
	}
	warm := origin.Stats()
	warmRelay := r.Stats()

	// Steady phase: everyone holds still. The whole-frame memo keeps
	// the round stable, so every exchange must be a marker serving the
	// identical cached bytes.
	ref := rawFrame(t, clients[0], wire.ClientUpdate{})
	const rounds = 5
	for round := 0; round < rounds; round++ {
		for i, c := range clients {
			got := rawFrame(t, c, wire.ClientUpdate{})
			if !bytes.Equal(got, ref) {
				t.Fatalf("round %d session %d: frame differs from the shared round", round, i)
			}
		}
	}
	steady := int64(sessions*rounds + 1)

	st := origin.Stats()
	if encodes := st.FramesEncoded - warm.FramesEncoded; encodes != 0 {
		t.Errorf("origin encoded %d rounds during the steady phase, want 0", encodes)
	}
	if fulls := st.RelayFulls - warm.RelayFulls; fulls != 0 {
		t.Errorf("origin shipped %d full relay payloads during the steady phase, want 0", fulls)
	}
	if markers := st.RelayMarkers - warm.RelayMarkers; markers != steady {
		t.Errorf("origin answered %d markers, want %d", markers, steady)
	}
	// Across the whole run the origin encoded once per round, not once
	// per downstream frame: joins plus the scene build bound encodes by
	// sessions+1 while downstream frames number sessions*(rounds+1)+1.
	if st.FramesEncoded > sessions+1 {
		t.Errorf("origin encoded %d rounds for %d sessions, want <= %d", st.FramesEncoded, sessions, sessions+1)
	}
	rs := r.Stats()
	if down := rs.DownFrames - warmRelay.DownFrames; down != steady {
		t.Errorf("relay served %d steady frames, want %d", down, steady)
	}
	if hr := rs.HitRate(); hr < 0.7 {
		t.Errorf("relay hit rate %.2f, want > 0.7 incl. warmup", hr)
	}
	// Fan-out amplification during the steady phase: cached bytes fan
	// downstream while only markers cross the upstream link.
	upSteady := rs.UpBytes - warmRelay.UpBytes
	downSteady := rs.DownBytes - warmRelay.DownBytes
	if downSteady < 8*upSteady {
		t.Errorf("steady down bytes %d not amplified over up bytes %d", downSteady, upSteady)
	}
}

// TestRelayMixedCodecFleet runs v1 and v2 workstations behind one
// relay at once: the v1 stream must stay byte-stable (shared round
// buffer verbatim) while each v2 stream decodes through its own
// stateful decoder with geometry matching the v1 frames.
func TestRelayMixedCodecFleet(t *testing.T) {
	origin := plainData.server(t, 0, 0)
	_, dial := startRelayNode(t, serveDial(origin.Dlib(), netsim.Link{}))

	v1a, v2a, v2b := connect(t, dial), connect(t, dial), connect(t, dial)
	for _, c := range []*dlib.Client{v2a, v2b} {
		if _, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2)); err != nil {
			t.Fatal(err)
		}
	}
	dec := map[*dlib.Client]*wire.FrameDecoder{
		v2a: wire.NewFrameDecoder(quantizerOf(t)),
		v2b: wire.NewFrameDecoder(quantizerOf(t)),
	}

	call := func(c *dlib.Client, u wire.ClientUpdate) wire.FrameReply {
		t.Helper()
		out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(u))
		if err != nil {
			t.Fatal(err)
		}
		if d := dec[c]; d != nil {
			r, err := d.Decode(out)
			if err != nil {
				t.Fatalf("v2 frame does not decode: %v", err)
			}
			return r
		}
		r, err := wire.DecodeFrameReply(out)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	call(v1a, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 9, 4), 4, integrate.ToolStreamline),
	}})
	// Interleave the fleet across several rounds, including a rake
	// move (geometry resend) mid-run.
	scripts := []struct {
		c *dlib.Client
		u wire.ClientUpdate
	}{
		{v2a, wire.ClientUpdate{}},
		{v2b, wire.ClientUpdate{}},
		{v1a, wire.ClientUpdate{}},
		{v2a, wire.ClientUpdate{Commands: []wire.Command{
			{Kind: wire.CmdGrab, Rake: 1, Grab: uint8(integrate.GrabCenter)},
			{Kind: wire.CmdMove, Rake: 1, Pos: vmath.V3(4, 7, 4)},
		}}},
		{v2b, wire.ClientUpdate{}},
		{v1a, wire.ClientUpdate{}},
		{v2a, wire.ClientUpdate{}},
		{v2b, wire.ClientUpdate{}},
	}
	var last [3]wire.FrameReply
	for _, s := range scripts {
		r := call(s.c, s.u)
		switch s.c {
		case v1a:
			last[0] = r
		case v2a:
			last[1] = r
		case v2b:
			last[2] = r
		}
	}
	// All three fleets converged on the same final scene.
	for i := 1; i < 3; i++ {
		if len(last[i].Geometry) != len(last[0].Geometry) {
			t.Fatalf("fleet %d sees %d geometries, v1 sees %d", i, len(last[i].Geometry), len(last[0].Geometry))
		}
	}
	if got, want := last[1].Rakes[0].P0, last[0].Rakes[0].P0; got != want {
		t.Errorf("v2 rake position %v, v1 %v", got, want)
	}
}

// TestRelayPartition pins routing semantics with multiple upstreams:
// sessions are statically partitioned round-robin, each stays on its
// upstream for its whole life, and the upstreams' environments stay
// independent.
func TestRelayPartition(t *testing.T) {
	a := plainData.server(t, 0, 0)
	b := plainData.server(t, 0, 0)
	_, dial := startRelayNode(t,
		serveDial(a.Dlib(), netsim.Link{}), serveDial(b.Dlib(), netsim.Link{}))

	var clients [4]*dlib.Client
	for i := range clients {
		clients[i] = connect(t, dial)
		// First contact pins the session: 0,2 → a; 1,3 → b.
		if _, err := clients[i].Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV1)); err != nil {
			t.Fatal(err)
		}
	}
	rake := func(c *dlib.Client, y float32) wire.FrameReply {
		return frame(t, c, update(addRakeCmd(vmath.V3(1, y, 4), vmath.V3(1, y+2, 4), 3, integrate.ToolStreamline)))
	}
	ra := rake(clients[0], 4)
	rb := rake(clients[1], 8)
	if len(ra.Rakes) != 1 || len(rb.Rakes) != 1 {
		t.Fatalf("rakes = %d / %d, want 1 each (partitioned environments)", len(ra.Rakes), len(rb.Rakes))
	}
	if ra.Rakes[0].P0 == rb.Rakes[0].P0 {
		t.Fatalf("both partitions see the same rake")
	}
	// Peers on the same partition share its environment.
	if r2 := frame(t, clients[2], wire.ClientUpdate{}); len(r2.Rakes) != 1 || r2.Rakes[0].P0 != ra.Rakes[0].P0 {
		t.Fatalf("partition peer does not share the environment")
	}
}

// TestRelayToolFanOut pins the encode-once property for tool-bearing
// rounds: with several workstations holding still behind one relay and
// all three tools enabled, steady-phase frames must be served from the
// relay cache byte-identically.
func TestRelayToolFanOut(t *testing.T) {
	origin := toolData.server(t, 0, 0)
	_, dial := startRelayNode(t, serveDial(origin.Dlib(), netsim.Link{}))
	clients := make([]*dlib.Client, 4)
	for i := range clients {
		clients[i] = connect(t, dial)
	}
	rawFrame(t, clients[0], update(
		wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: 0.8},
		wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 0, Value: 0.5},
		wire.Command{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.01}))
	// Settle the join churn (each connect bumps the user list), then
	// require byte-stable fan-out of the tool-bearing round.
	for range 2 {
		for _, c := range clients {
			rawFrame(t, c, wire.ClientUpdate{})
		}
	}
	ref := bytes.Clone(rawFrame(t, clients[0], wire.ClientUpdate{}))
	r, err := wire.DecodeFrameReply(ref)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tools == nil || r.Tools.TotalPoints() == 0 {
		t.Fatal("steady round carries no tool geometry")
	}
	for round := 0; round < 3; round++ {
		for i, c := range clients {
			if got := rawFrame(t, c, wire.ClientUpdate{}); !bytes.Equal(got, ref) {
				t.Fatalf("round %d session %d: tool-bearing frame differs from the shared round", round, i)
			}
		}
	}
}
