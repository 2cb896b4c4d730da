package server

// The lock table: the paper's first-come-first-served rule for every
// lock a wire command can take — a rake, the isosurface, the cutting
// plane and the steering parameters (the rows) — under every way a
// holder can let go or go away (the columns, lockFaults). Every cell
// asserts the same four invariants: the lock has one holder; its
// parameters are the defaults or exactly the record that was sent, never
// a mix; it comes free once the holder lets go or is gone; and a fresh
// session takes it. No wire command grabs the vortex tool's lock (its
// toggle is one-shot), so it rides along in the reset column only, for
// its torn-record check.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// The table's tests are named for its rows, so make's -run patterns
// select them by top-level name: `make chaos` every row, `make tools` the
// iso and plane rows, `make live` the steering row.
func TestChaosRakeLock(t *testing.T)  { runLockRow(t, rakeLock) }
func TestChaosIsoLock(t *testing.T)   { runLockRow(t, isoLock) }
func TestChaosPlaneLock(t *testing.T) { runLockRow(t, planeLock) }
func TestChaosSteerLock(t *testing.T) { runLockRow(t, steerLock) }

func runLockRow(t *testing.T, row lockRow) {
	for _, f := range lockFaults {
		t.Run(f.name, func(t *testing.T) { f.run(t, row) })
	}
}

// lockRow is one lock: the server it lives on, the update that takes it
// and sets its parameters, and how both read back.
type lockRow struct {
	// server builds an origin with the lock free at its defaults; lv is
	// the solver behind a live origin, nil for any other.
	server   func(t *testing.T) (s *Server, lv *datasets.Live)
	defaults any
	// records are the parameters three sessions send: the holder's, a
	// rival's and the fresh session's. update takes the lock and sets a
	// record in one ClientUpdate.
	records [3]any
	update  func(record any) wire.ClientUpdate
	release wire.Command
	held    func(s *Server) (holder int64, params any)
}

var rakeLock = lockRow{
	server: func(t *testing.T) (*Server, *datasets.Live) {
		s := plainData.server(t, 0, 0)
		if _, err := s.Env().AddRake(vmath.V3(2, 2, 2), vmath.V3(12, 2, 2), 5, integrate.ToolStreamline); err != nil {
			t.Fatal(err)
		}
		return s, nil
	},
	defaults: vmath.V3(2, 2, 2),
	records:  [3]any{vmath.V3(3, 4, 2), vmath.V3(5, 5, 5), vmath.V3(4, 6, 3)},
	update: func(rec any) wire.ClientUpdate {
		return update(wire.Command{Kind: wire.CmdGrab, Rake: 1, Grab: uint8(integrate.GrabEnd0)},
			wire.Command{Kind: wire.CmdMove, Rake: 1, Pos: rec.(vmath.Vec3)})
	},
	release: wire.Command{Kind: wire.CmdRelease, Rake: 1},
	held: func(s *Server) (int64, any) {
		r, _ := s.Env().Rake(1)
		return r.Holder, r.Rake.P0
	},
}

var isoLock = lockRow{
	server:   func(t *testing.T) (*Server, *datasets.Live) { return toolData.server(t, 0, 0), nil },
	defaults: env.ToolParams{},
	records:  [3]any{env.ToolParams{Enabled: true, Value: 0.8}, env.ToolParams{Enabled: true, Value: 0.3}, env.ToolParams{Enabled: true, Value: 0.6}},
	update: func(rec any) wire.ClientUpdate {
		return update(wire.Command{Kind: wire.CmdIsoGrab},
			wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: rec.(env.ToolParams).Value})
	},
	release: wire.Command{Kind: wire.CmdIsoRelease},
	held: func(s *Server) (int64, any) {
		iso := s.Env().Tools()[env.ToolIso-1]
		return iso.Holder, iso.Params
	},
}

var planeLock = lockRow{
	server:   func(t *testing.T) (*Server, *datasets.Live) { return toolData.server(t, 0, 0), nil },
	defaults: env.ToolParams{},
	records: [3]any{env.ToolParams{Enabled: true, Axis: 1, Value: 0.25}, env.ToolParams{Enabled: true, Axis: 2, Value: 0.9},
		env.ToolParams{Enabled: true, Axis: 0, Value: 0.75}},
	update: func(rec any) wire.ClientUpdate {
		p := rec.(env.ToolParams)
		return update(wire.Command{Kind: wire.CmdPlaneGrab},
			wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: p.Axis, Value: p.Value})
	},
	release: wire.Command{Kind: wire.CmdPlaneRelease},
	held: func(s *Server) (int64, any) {
		plane := s.Env().Tools()[env.ToolPlane-1]
		return plane.Holder, plane.Params
	},
}

// steerLock runs on a live origin, so a steering change reaches a real
// producer: its updates set time playing, and every cell checks that the
// solver applied no triple but a holder's.
var steerLock = lockRow{
	server: func(t *testing.T) (*Server, *datasets.Live) {
		spec, sopts := liveSpec()
		return liveServer(t, spec, sopts, spec.NumSteps, Config{})
	},
	defaults: env.SteerParams(datasets.DefaultSteer()),
	records: [3]any{env.SteerParams{InflowU: 2.5, Reynolds: 350, Taper: 0.9}, env.SteerParams{InflowU: 9, Reynolds: 100, Taper: 0.1},
		env.SteerParams{InflowU: 1.5, Reynolds: 500, Taper: 0.6}},
	update: func(rec any) wire.ClientUpdate {
		p := rec.(env.SteerParams)
		return update(wire.Command{Kind: wire.CmdSteerGrab},
			wire.Command{Kind: wire.CmdSteer, P0: vmath.V3(p.InflowU, p.Reynolds, p.Taper)},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})
	},
	release: wire.Command{Kind: wire.CmdSteerRelease},
	held: func(s *Server) (int64, any) {
		st := s.Env().Steer()
		return st.Holder, st.Params
	},
}

// lockFaults are the table's columns. Each connects the holder as the
// cell server's first session (dlib numbers sessions from 1, and a relay
// opens its upstream leg at a session's first call), has it take the
// lock at records[0] and makes it let go or go away its own way; freed
// then checks what is left.
var lockFaults = []struct {
	name string
	run  func(t *testing.T, row lockRow)
}{
	{"released", func(t *testing.T, row lockRow) {
		// The holder sends the row's release command and stays connected.
		c := row.cell(t)
		h := c.grab(t, 0)
		c.holds(t)
		rawFrame(t, h, update(c.release))
		c.freed(t)
	}},
	{"killed", func(t *testing.T, row lockRow) {
		// The socket is torn down, no goodbye.
		c := row.cell(t)
		h := c.grab(t, 0)
		c.holds(t)
		h.Close()
		c.freed(t)
	}},
	{"rival", func(t *testing.T, row lockRow) {
		// A rival's grab bounces, and its death loosens nothing.
		c := row.cell(t)
		h := c.grab(t, 0)
		rival := c.grab(t, 1)
		c.holds(t)
		rival.Close()
		time.Sleep(20 * time.Millisecond) // the rival's disconnect runs
		c.holds(t)
		h.Close()
		c.freed(t)
	}},
	{"reset", func(t *testing.T, row lockRow) {
		// The server side serves the grabbing call in five ops (three
		// reads, two writes) and waits for the next on the sixth: a reset
		// at each of ops 1-8 may land before, inside or after the update.
		vortex := env.ToolParams{Enabled: true, Value: 0.01}
		for atOp := 1; atOp <= 8; atOp++ {
			t.Run(fmt.Sprintf("op%d", atOp), func(t *testing.T) {
				c := row.cell(t)
				a, b := net.Pipe()
				plan := &netsim.FaultPlan{Faults: []netsim.Fault{{Kind: netsim.FaultReset, AtOp: atOp}}}
				go c.s.Dlib().ServeConn(plan.Wrap(b))
				h := dlib.NewClient(a)
				u := c.update(c.records[0])
				u.Commands = append(u.Commands, wire.Command{Kind: wire.CmdVortexToggle, Flag: 1, Value: vortex.Value})
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				h.CallContext(ctx, wire.ProcFrame, wire.EncodeClientUpdate(u)) // either outcome is legal
				cancel()
				h.Close()
				if p := c.s.Env().Tools()[env.ToolVortex-1].Params; p != (env.ToolParams{}) && p != vortex {
					t.Fatalf("torn vortex parameters %+v", p)
				}
				c.freed(t)
			})
		}
	}},
	{"reaped", func(t *testing.T, row lockRow) {
		// The holder partitions: its socket stays up and goes silent, and
		// only the server's idle reaper can free the lock.
		c := row.cell(t)
		c.s.Dlib().IdleTimeout = 50 * time.Millisecond
		c.grab(t, 0)
		// The reaper may already have freed the lock; the record stays.
		if _, p := c.held(c.s); p != c.records[0] {
			t.Fatalf("grab did not land: %+v", p)
		}
		c.freed(t)
		if c.s.Dlib().ReapedSessions() == 0 {
			t.Error("lock freed but the holder not reaped")
		}
	}},
	{"relay", func(t *testing.T, row lockRow) {
		// The holder reaches the origin through a relay and dies below it:
		// the relay closing the session's upstream leg frees the lock.
		c := row.cell(t)
		_, c.dial = startRelayNode(t, c.dial)
		h := c.grab(t, 0)
		c.holds(t)
		h.Close()
		c.freed(t)
	}},
}

// lockCell is one run of a cell: the row, its origin and the dial a
// workstation reaches it through.
type lockCell struct {
	lockRow
	s    *Server
	lv   *datasets.Live
	dial dlib.DialFunc
}

func (row lockRow) cell(t *testing.T) *lockCell {
	s, lv := row.server(t)
	t.Cleanup(func() { s.Dlib().Close() })
	return &lockCell{lockRow: row, s: s, lv: lv, dial: serveDial(s.Dlib(), netsim.Link{})}
}

// grab connects a workstation that takes the lock at records[r].
func (c *lockCell) grab(t *testing.T, r int) *dlib.Client {
	t.Helper()
	ws := connect(t, c.dial)
	rawFrame(t, ws, c.update(c.records[r]))
	return ws
}

// holds asserts that the lock's one holder is the first session, at its
// record.
func (c *lockCell) holds(t *testing.T) {
	t.Helper()
	if h, p := c.held(c.s); h != 1 || p != c.records[0] {
		t.Fatalf("lock held by %d at %+v, want session 1 at %+v", h, p, c.records[0])
	}
}

// freed is every cell's end, once the holder is gone: the parameters are
// the defaults or exactly the holder's record, the lock comes free, and
// a fresh session takes it at its own record. On a live origin the solver
// applied no triple but those two records.
func (c *lockCell) freed(t *testing.T) {
	t.Helper()
	if _, p := c.held(c.s); p != c.defaults && p != c.records[0] {
		t.Fatalf("torn parameters %+v", p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h, _ := c.held(c.s); h != 0; h, _ = c.held(c.s) {
		if time.Now().After(deadline) {
			t.Fatalf("lock still held by %d after its holder went away", h)
		}
		time.Sleep(time.Millisecond)
	}
	fresh := connect(t, c.dial)
	out, err := fresh.Call(wire.ProcWhoAmI, nil)
	if err != nil || len(out) != 8 {
		t.Fatalf("whoami: %v (%d bytes)", err, len(out))
	}
	id := int64(binary.LittleEndian.Uint64(out))
	rawFrame(t, fresh, c.update(c.records[2]))
	for range 3 { // a live producer applies the change between timesteps
		rawFrame(t, fresh, wire.ClientUpdate{})
	}
	if h, p := c.held(c.s); h != id || p != c.records[2] {
		t.Fatalf("lock held by %d at %+v, want the fresh session %d at %+v", h, p, id, c.records[2])
	}
	if c.lv != nil {
		for _, ap := range c.lv.AppliedSteer() {
			if p := env.SteerParams(ap); p != c.records[0] && p != c.records[2] {
				t.Fatalf("the solver applied %+v, no holder's record", ap)
			}
		}
	}
}
