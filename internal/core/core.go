// Package core is the top-level virtual windtunnel API — the paper's
// primary contribution assembled from the substrates: it launches
// stand-alone sessions (everything in one process, the configuration
// of the earlier Bryson-Levit system), serves datasets to remote
// workstations, and connects workstations to remote servers, while
// tracking the paper's central performance contract: the full
// command-to-display loop must fit in 1/8 of a second (§1.2).
package core

import (
	"fmt"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/datasets"
	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// FrameBudget is the paper's interaction deadline: "the system must
// repeatedly react to the user's commands and display the virtual
// scene in stereo to the user in less than 1/8th of a second."
const FrameBudget = time.Second / 8

// Session is a connected windtunnel: a workstation (always) and, for
// local sessions, the in-process server.
type Session struct {
	// WS is the workstation: rendering, state, and the network loop.
	WS *client.Workstation
	// User provides scripted head/hand input.
	User *vr.ScriptedUser

	srv *server.Server // non-nil for local sessions
}

// LaunchLocal runs the stand-alone windtunnel: server and workstation
// in one process over an in-memory pipe, the server serving dataset
// from memory (cfg.Store is replaced). The same code paths run as in
// the distributed case — the paper kept the two builds from one source
// tree for exactly this reason (§5.1).
func LaunchLocal(dataset *field.Unsteady, cfg server.Config, ws client.Config) (*Session, error) {
	cfg.Store = store.NewMemory(dataset)
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	serverSide, clientSide := net.Pipe()
	go srv.Dlib().ServeConn(serverSide)
	return newSession(dlib.NewClient(clientSide), srv, ws)
}

// Serve starts a distributed windtunnel server on the listener and
// returns immediately; close the returned server's Dlib() to stop.
func Serve(ln net.Listener, cfg server.Config) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	go srv.Dlib().Serve(ln)
	return srv, nil
}

// NewLive builds an in-situ windtunnel server: frames are computed
// from the live solver's timestep ring instead of stored data
// (cfg.Store is replaced), steering starts from the solver's default
// parameters (cfg.Steer is replaced), and the steering commands
// workstations send are wired back into the producer — the environment
// arbitrates (FCFS lock, version counter), the producer applies.
func NewLive(lv *datasets.Live, cfg server.Config) (*server.Server, error) {
	def := datasets.DefaultSteer()
	cfg.Store = lv.Ring()
	cfg.Steer = env.SteerParams{InflowU: def.InflowU, Reynolds: def.Reynolds, Taper: def.Taper}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	e := srv.Env()
	lv.SetSteerSource(func() (datasets.Steering, uint64) {
		st := e.Steer()
		return datasets.Steering{
			InflowU:  st.Params.InflowU,
			Reynolds: st.Params.Reynolds,
			Taper:    st.Params.Taper,
		}, st.Version
	})
	return srv, nil
}

// ServeLive starts NewLive's in-situ server on the listener and
// returns immediately; close the returned server's Dlib() to stop.
func ServeLive(ln net.Listener, lv *datasets.Live, cfg server.Config) (*server.Server, error) {
	srv, err := NewLive(lv, cfg)
	if err != nil {
		return nil, err
	}
	go srv.Dlib().Serve(ln)
	return srv, nil
}

// Connect attaches a workstation to a remote windtunnel server, either
// by address or through a pre-established connection (e.g. a netsim
// link); pass exactly one. A workstation connected by address survives
// the loss of its connection: it redials the address with backoff and
// replays the handshake while the display keeps the last frame's
// geometry (client.NewResilient).
func Connect(addr string, conn net.Conn, cfg client.Config) (*Session, error) {
	switch {
	case conn != nil:
		return newSession(dlib.NewClient(conn), nil, cfg)
	case addr != "":
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		ws, err := client.NewResilient(dial, cfg, dlib.RedialOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: connect %s: %w", addr, err)
		}
		return withUser(ws, nil)
	}
	return nil, fmt.Errorf("core: Connect needs an address or a connection")
}

func newSession(c *dlib.Client, srv *server.Server, cfg client.Config) (*Session, error) {
	ws, err := client.New(c, cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	return withUser(ws, srv)
}

// withUser completes a session around a connected workstation.
func withUser(ws *client.Workstation, srv *server.Server) (*Session, error) {
	user, err := vr.NewScriptedUser(1)
	if err != nil {
		ws.Close()
		return nil, err
	}
	return &Session{WS: ws, User: user, srv: srv}, nil
}

// Close tears the session down (and the server, for local sessions).
func (s *Session) Close() error {
	err := s.WS.Close()
	if s.srv != nil {
		if e := s.srv.Dlib().Close(); err == nil {
			err = e
		}
	}
	return err
}

// Server returns the in-process server for local sessions, or nil.
func (s *Session) Server() *server.Server { return s.srv }

// AddRake queues a rake creation for the next frame.
func (s *Session) AddRake(p0, p1 vmath.Vec3, numSeeds int, tool integrate.ToolKind) {
	s.WS.Queue(wire.Command{
		Kind: wire.CmdAddRake,
		P0:   p0, P1: p1,
		NumSeeds: uint32(numSeeds),
		Tool:     uint8(tool),
	})
}

// Play starts dataset playback at the given speed (timesteps/frame;
// negative runs time backward — §2's time control).
func (s *Session) Play(speed float32) {
	s.WS.Queue(wire.Command{Kind: wire.CmdSetSpeed, Value: speed})
	s.WS.Queue(wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})
}

// Stop pauses playback "for detailed examination".
func (s *Session) Stop() {
	s.WS.Queue(wire.Command{Kind: wire.CmdSetPlaying, Flag: 0})
}

// FrameResult reports one full interaction frame against the budget.
type FrameResult struct {
	// Total is the command-to-display round trip.
	Total time.Duration
	// WithinBudget reports Total <= FrameBudget.
	WithinBudget bool
	// Points is the geometry size received this frame.
	Points int
}

// Frame runs one complete interaction frame with scripted input —
// sample devices, exchange with the server, render stereo — and
// checks it against the 1/8-second budget.
func (s *Session) Frame() (FrameResult, error) {
	start := time.Now()
	pose := s.User.Step()
	if err := s.WS.NetStep(pose); err != nil {
		return FrameResult{}, err
	}
	if err := s.WS.RenderFrame(pose.Head); err != nil {
		return FrameResult{}, err
	}
	total := time.Since(start)
	state, _ := s.WS.Latest()
	return FrameResult{
		Total:        total,
		WithinBudget: total <= FrameBudget,
		Points:       state.TotalPoints(),
	}, nil
}
