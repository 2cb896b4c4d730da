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
	"repro/internal/compute"
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

// Options configures a windtunnel.
type Options struct {
	// Workers is the server's computation worker count: the width of
	// the parallel engine and of the round's pool (rakes, tool derive,
	// march, fill). Zero uses GOMAXPROCS.
	Workers int
	// Integration sets path computation parameters; the zero value
	// uses RK2 with 200-point paths.
	Integration integrate.Options
	// Prefetch reads the timesteps the play touches next in the
	// background, for I/O-backed stores.
	Prefetch bool
	// MaxSeedsPerRake caps client-requested seed counts server-side;
	// zero uses the server default.
	MaxSeedsPerRake int
	// CacheSteps / CacheBytes budget the timesteps an I/O-backed
	// server keeps resident; both zero keeps the particle-path window
	// and nothing else. The window is never evicted to meet them.
	CacheSteps int
	CacheBytes int64
	// Budget is the server's per-frame integration budget: when the
	// governor predicts a frame will exceed it, load is shed to hold
	// the paper's ten frames a second instead of blowing the §1.2
	// deadline. Zero disables the governor.
	Budget time.Duration
	// FrameW, FrameH size the workstation display; zero uses 640x512.
	FrameW, FrameH int
	// MaxCodec caps the frame codec the server negotiates at hello;
	// zero serves up to wire.MaxCodec, wire.CodecV1 pins the classic
	// encoding for every session.
	MaxCodec int
	// Codec is the frame codec the workstation requests; zero or
	// wire.CodecV1 runs the legacy v1 exchange, wire.CodecV2 asks for
	// delta/quantized frames (falling back to v1 against old servers).
	Codec uint8
	// Tools seeds the shared visualization tools server-side
	// (isosurface level, cutting plane, Q-criterion vortex cores),
	// indexed by env.ToolID-1. All zero leaves the tool subsystem
	// untouched and frames byte-identical to pre-tool builds.
	Tools [env.NumTools]env.ToolParams
}

// Session is a connected windtunnel: a workstation (always) and, for
// local sessions, the in-process server.
type Session struct {
	// WS is the workstation: rendering, state, and the network loop.
	WS *client.Workstation
	// User provides scripted head/hand input.
	User *vr.ScriptedUser

	srv *server.Server // non-nil for local sessions
}

// serverConfig maps Options onto a server's configuration for every
// launch path (the cache and prefetch options only shape the cache the
// server puts under a store that is not a store.Source, such as a
// store.Disk; a resident dataset or a live ring keeps its own
// residency). Workers sets the engine's width, which is also the width
// of the server's round pool.
func serverConfig(st store.Store, opts Options) server.Config {
	return server.Config{
		Store:           st,
		Engine:          compute.Parallel{NumWorkers: opts.Workers},
		Options:         opts.Integration,
		Prefetch:        opts.Prefetch,
		MaxSeedsPerRake: opts.MaxSeedsPerRake,
		CacheSteps:      opts.CacheSteps,
		CacheBytes:      opts.CacheBytes,
		Budget:          opts.Budget,
		MaxCodec:        opts.MaxCodec,
		Tools:           opts.Tools,
	}
}

// LaunchLocal runs the stand-alone windtunnel: server and workstation
// in one process over an in-memory pipe. The same code paths run as in
// the distributed case — the paper kept the two builds from one source
// tree for exactly this reason (§5.1).
func LaunchLocal(dataset *field.Unsteady, opts Options) (*Session, error) {
	srv, err := server.New(serverConfig(store.NewMemory(dataset), opts))
	if err != nil {
		return nil, err
	}
	serverSide, clientSide := net.Pipe()
	go srv.Dlib().ServeConn(serverSide)
	return newSession(dlib.NewClient(clientSide), srv, opts)
}

// Serve starts a distributed windtunnel server on the listener and
// returns immediately; close the returned server's Dlib() to stop.
func Serve(ln net.Listener, st store.Store, opts Options) (*server.Server, error) {
	srv, err := server.New(serverConfig(st, opts))
	if err != nil {
		return nil, err
	}
	go srv.Dlib().Serve(ln)
	return srv, nil
}

// LiveSteerSource adapts an environment's steering state into the
// producer-side SteerSource the live solver polls between timesteps:
// the environment arbitrates (FCFS lock, version counter), the
// producer applies.
func LiveSteerSource(e *env.Environment) datasets.SteerSource {
	return func() (datasets.Steering, uint64) {
		st := e.Steer()
		return datasets.Steering{
			InflowU:  st.Params.InflowU,
			Reynolds: st.Params.Reynolds,
			Taper:    st.Params.Taper,
		}, st.Version
	}
}

// ServeLive starts an in-situ windtunnel server: frames are computed
// from the live solver's timestep ring instead of stored data, and the
// steering commands workstations send are wired back into the
// producer. Close the returned server's Dlib() to stop.
func ServeLive(ln net.Listener, lv *datasets.Live, opts Options) (*server.Server, error) {
	def := datasets.DefaultSteer()
	cfg := serverConfig(lv.Ring(), opts)
	cfg.Steer = env.SteerParams{
		InflowU:  def.InflowU,
		Reynolds: def.Reynolds,
		Taper:    def.Taper,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	lv.SetSteerSource(LiveSteerSource(srv.Env()))
	go srv.Dlib().Serve(ln)
	return srv, nil
}

// Connect attaches a workstation to a remote windtunnel server, either
// by address or through a pre-established connection (e.g. a netsim
// link); pass exactly one. A workstation connected by address survives
// the loss of its connection: it redials the address with backoff and
// replays the handshake while the display keeps the last frame's
// geometry (client.NewResilient).
func Connect(addr string, conn net.Conn, opts Options) (*Session, error) {
	switch {
	case conn != nil:
		return newSession(dlib.NewClient(conn), nil, opts)
	case addr != "":
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		ws, err := client.NewResilient(dial, workstationConfig(opts), dlib.RedialOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: connect %s: %w", addr, err)
		}
		return withUser(ws, nil)
	}
	return nil, fmt.Errorf("core: Connect needs an address or a connection")
}

func workstationConfig(opts Options) client.Config {
	return client.Config{FrameW: opts.FrameW, FrameH: opts.FrameH, Codec: opts.Codec}
}

func newSession(c *dlib.Client, srv *server.Server, opts Options) (*Session, error) {
	ws, err := client.New(c, workstationConfig(opts))
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
