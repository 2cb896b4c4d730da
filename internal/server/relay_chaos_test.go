package server

// Cluster-tier chaos: what the relay promises when connections die.
// An upstream (relay to origin) loss hangs up the affected downstream
// sessions — the workstation keeps its last-good geometry, redials,
// and resyncs from a keyframe. Sessions pinned to other upstreams ride
// through a partition untouched. (A downstream loss releasing the
// user's locks at the origin is the lock table's relay column.)

import (
	"net"
	"sync"
	"testing"

	"repro/internal/dlib"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// killableDial is an upstream dial that records the origin-side conn of
// every leg it creates, so a test can sever them mid-run.
type killableDial struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (k *killableDial) dial(d *dlib.Server, link netsim.Link) dlib.DialFunc {
	return func() (net.Conn, error) {
		client, server := netsim.Pipe(link)
		k.mu.Lock()
		k.conns = append(k.conns, server)
		k.mu.Unlock()
		go d.ServeConn(server)
		return client, nil
	}
}

// kill severs every recorded leg: the origin sees the disconnects, the
// relay's next upstream call fails.
func (k *killableDial) kill() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.conns {
		c.Close()
	}
	k.conns = k.conns[:0]
}

// TestRelayUpstreamLossResync crashes the relay-to-origin leg mid-run
// under a codec-v2 session: the downstream call fails (the relay hangs
// the connection up rather than silently redialing into a fresh origin
// identity), the workstation's last-good geometry is intact, and a
// redial through the same relay resyncs from a keyframe that matches
// the pre-crash scene — the origin outlived the partition, so the rake
// and its streamlines are unchanged.
func TestRelayUpstreamLossResync(t *testing.T) {
	origin := plainData.server(t, 0, 0)
	up := &killableDial{}
	r, dial := startRelayNode(t, up.dial(origin.Dlib(), netsim.Link{}))

	join := func() (*dlib.Client, *wire.FrameDecoder) {
		t.Helper()
		c := connect(t, dial)
		if _, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2)); err != nil {
			t.Fatal(err)
		}
		return c, wire.NewFrameDecoder(quantizerOf(t))
	}
	exchange := func(c *dlib.Client, dec *wire.FrameDecoder, u wire.ClientUpdate) wire.FrameReply {
		t.Helper()
		out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(u))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dec.Decode(out)
		if err != nil {
			t.Fatalf("v2 frame does not decode: %v", err)
		}
		return rep
	}

	c, dec := join()
	exchange(c, dec, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 9, 4), 4, integrate.ToolStreamline),
	}})
	lastGood := exchange(c, dec, wire.ClientUpdate{}) // steady delta frame

	up.kill()
	if _, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(wire.ClientUpdate{})); err == nil {
		t.Fatal("frame exchange succeeded across a dead upstream")
	}
	if h := r.Stats().Hangups; h != 1 {
		t.Errorf("relay hangups = %d, want 1", h)
	}
	// The failed exchange must not have disturbed what the workstation
	// already holds — it renders last-good geometry until resynced.
	if lastGood.TotalPoints() == 0 || len(lastGood.Geometry) != 1 {
		t.Fatalf("last-good frame lost: %d points in %d geometries",
			lastGood.TotalPoints(), len(lastGood.Geometry))
	}

	// Redial through the same relay. The first frame of the new session
	// decodes on a brand-new decoder — which only a keyframe can (a
	// delta's segment references against an empty shadow are an error) —
	// and reproduces the pre-crash scene exactly.
	c2, dec2 := join()
	resynced := exchange(c2, dec2, wire.ClientUpdate{})
	if len(resynced.Geometry) != len(lastGood.Geometry) {
		t.Fatalf("resync sees %d geometries, last-good had %d",
			len(resynced.Geometry), len(lastGood.Geometry))
	}
	for i, g := range resynced.Geometry {
		want := lastGood.Geometry[i]
		if len(g.Lines) != len(want.Lines) {
			t.Fatalf("geometry %d: %d lines after resync, want %d", i, len(g.Lines), len(want.Lines))
		}
		for j, line := range g.Lines {
			if len(line) != len(want.Lines[j]) {
				t.Fatalf("geometry %d line %d: %d points after resync, want %d",
					i, j, len(line), len(want.Lines[j]))
			}
			for k, p := range line {
				if p != want.Lines[j][k] {
					t.Fatalf("geometry %d line %d point %d moved across resync: %v != %v",
						i, j, k, p, want.Lines[j][k])
				}
			}
		}
	}
}

// TestRelayPartitionIsolation partitions one of two upstreams mid-run:
// only the sessions pinned to the dead upstream hang up; a session on
// the surviving upstream keeps exchanging frames through the same relay
// uninterrupted, and a fresh session re-pins to the partitioned
// upstream once it is reachable again.
func TestRelayPartitionIsolation(t *testing.T) {
	a := plainData.server(t, 0, 0)
	b := plainData.server(t, 0, 0)
	upA := &killableDial{}
	r, dial := startRelayNode(t,
		upA.dial(a.Dlib(), netsim.Link{}), serveDial(b.Dlib(), netsim.Link{}))

	frame := func(c *dlib.Client, u wire.ClientUpdate) (wire.FrameReply, error) {
		t.Helper()
		out, err := c.Call(wire.ProcFrame, wire.EncodeClientUpdate(u))
		if err != nil {
			return wire.FrameReply{}, err
		}
		rep, err := wire.DecodeFrameReply(out)
		if err != nil {
			t.Fatal(err)
		}
		return rep, nil
	}

	cA, cB := connect(t, dial), connect(t, dial) // pinned round-robin: cA → a, cB → b
	if _, err := frame(cA, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(1, 4, 4), vmath.V3(1, 8, 4), 3, integrate.ToolStreamline),
	}}); err != nil {
		t.Fatal(err)
	}
	repB, err := frame(cB, wire.ClientUpdate{Commands: []wire.Command{
		addRakeCmd(vmath.V3(2, 9, 3), vmath.V3(2, 12, 3), 3, integrate.ToolStreamline),
	}})
	if err != nil {
		t.Fatal(err)
	}

	upA.kill()
	if _, err := frame(cA, wire.ClientUpdate{}); err == nil {
		t.Fatal("frame exchange succeeded across the partition")
	}
	if h := r.Stats().Hangups; h != 1 {
		t.Errorf("relay hangups = %d, want 1 (only the partitioned session)", h)
	}
	// The survivor rides through: same relay, same environment.
	got, err := frame(cB, wire.ClientUpdate{})
	if err != nil {
		t.Fatalf("survivor session failed during the partition: %v", err)
	}
	if len(got.Rakes) != 1 || got.Rakes[0].P0 != repB.Rakes[0].P0 {
		t.Fatalf("survivor lost its environment: %+v", got.Rakes)
	}

	// Upstream a is reachable again (it never died — the link did). The
	// next session round-robins back onto it and finds the scene intact.
	cA2 := connect(t, dial)
	got, err = frame(cA2, wire.ClientUpdate{})
	if err != nil {
		t.Fatalf("re-pinned session failed: %v", err)
	}
	if len(got.Rakes) != 1 {
		t.Fatalf("re-pinned session sees %d rakes, want the surviving scene", len(got.Rakes))
	}
}
