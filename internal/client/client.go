// Package client implements the workstation side of the distributed
// windtunnel (figure 9): a network process that runs the once-per-
// frame dlib exchange with the remote host, and a render process that
// redraws the head-tracked stereo display from the latest received
// state at its own, much higher rate — "the graphics performance is
// not tied to the network and remote computation performance".
//
//vw:wire
package client

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dlib"
	"repro/internal/netsim"
	"repro/internal/render"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// The workstation's stereo optics: the eye separation in world units
// and the vertical field of view in radians (the LEEP optics' wide
// field).
const (
	ipd = 0.064
	fov = 1.5
)

// Config sets up a workstation.
type Config struct {
	// FrameW, FrameH size the framebuffer; zero uses 640x512 (a
	// quarter of the VGX's 1280x1024, laptop-friendly).
	FrameW, FrameH int
	// Clock times network frames and decoupled runs; nil uses the wall
	// clock. Tests inject a netsim.ManualClock for replayable pacing.
	Clock netsim.Clock
	// Codec is the highest frame codec to request at hello. Zero or
	// wire.CodecV1 asks for the classic full frames; wire.CodecV2 for
	// delta/quantized frames, which a server capped at v1 answers with
	// v1.
	Codec uint8
}

// Stats are the workstation's performance counters.
type Stats struct {
	NetFrames    int64
	RenderFrames int64
	// NetErrors counts failed network frames (stall, reset, partition);
	// in resilient mode these are survived, not fatal.
	NetErrors int64
	NetTime   time.Duration
	BytesDown int64
	// Rounds counts distinct server computation rounds observed and
	// LastRound is the most recent one. NetFrames - Rounds is how many
	// frames rode the server's encode-once fan-out or whole-frame memo
	// (an unchanged Round means the shared scene held still).
	Rounds    int64
	LastRound uint64
	// DegradedFrames counts replies carrying a non-zero degradation
	// byte — rounds the server's frame-budget governor shed load on —
	// and LastDegraded is the most recent reply's byte (0 = full
	// fidelity).
	DegradedFrames int64
	LastDegraded   uint8
	// ToolFrames counts replies carrying a shared-tool section, and
	// LastToolPoints is the tool geometry size (isosurface triangle
	// vertices plus hedgehog endpoints) of the most recent one.
	ToolFrames     int64
	LastToolPoints int64
}

// Workstation is one user's machine.
type Workstation struct {
	c      dlib.Caller
	redial *dlib.RedialClient // non-nil in resilient mode
	clock  netsim.Clock
	// wantCodec is the Config.Codec request, at least wire.CodecV1;
	// the negotiated result lives under mu (it can change across
	// reconnects).
	wantCodec uint8

	fb  *render.Framebuffer
	rig render.StereoRig

	netFrames    atomic.Int64
	renderFrames atomic.Int64
	netErrors    atomic.Int64
	netNanos     atomic.Int64
	bytesDown    atomic.Int64

	interact interactor

	mu      sync.Mutex // guards everything below
	info    wire.DatasetInfo
	selfID  int64
	codec   uint8              // negotiated frame codec for this connection
	dec     *wire.FrameDecoder // codec-v2 delta state; fresh per connection
	latest  wire.FrameReply
	haveOne bool
	pending []wire.Command
	lastErr error
	rounds  int64 // distinct reply.Round values seen
	// degradedFrames counts replies received with a non-zero
	// degradation byte; toolFrames counts replies carrying a
	// shared-tool section.
	degradedFrames int64
	toolFrames     int64
}

// newWorkstation builds the renderer side; the caller wires the
// network side.
func newWorkstation(cfg Config) (*Workstation, error) {
	if cfg.FrameW == 0 {
		cfg.FrameW, cfg.FrameH = 640, 512
	}
	fb, err := render.NewFramebuffer(cfg.FrameW, cfg.FrameH)
	if err != nil {
		return nil, err
	}
	aspect := float32(cfg.FrameW) / float32(cfg.FrameH)
	clk := cfg.Clock
	if clk == nil {
		clk = netsim.RealClock
	}
	return &Workstation{
		clock:     clk,
		wantCodec: max(cfg.Codec, wire.CodecV1),
		fb:        fb,
		rig: render.StereoRig{
			IPD:  ipd,
			Proj: vmath.Perspective(fov, aspect, 0.05, 500),
			List: new(render.DisplayList),
		},
	}, nil
}

// handshake runs the connect-time exchange: the hello, which
// negotiates the frame codec and returns the dataset info, then our
// session identity. It reruns on every reconnect, because dlib session
// state — including the server side of the delta shadow — dies with
// the connection.
func handshake(c dlib.Caller, want uint8) (wire.DatasetInfo, uint8, int64, error) {
	out, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(want))
	if err != nil {
		return wire.DatasetInfo{}, 0, 0, fmt.Errorf("client: hello2: %w", err)
	}
	codec, info, err := wire.DecodeHelloReply(out)
	if err != nil {
		return wire.DatasetInfo{}, 0, 0, err
	}
	idBytes, err := c.Call(wire.ProcWhoAmI, nil)
	if err != nil {
		return wire.DatasetInfo{}, 0, 0, fmt.Errorf("client: whoami: %w", err)
	}
	if len(idBytes) != 8 {
		return wire.DatasetInfo{}, 0, 0, fmt.Errorf("client: whoami reply of %d bytes", len(idBytes))
	}
	return info, codec, int64(binary.LittleEndian.Uint64(idBytes)), nil
}

// adoptConnection installs the post-handshake connection state: the
// negotiated codec and, for v2, a fresh frame decoder whose empty
// shadow matches the server's fresh per-session encoder — the first
// frame after any (re)connect is a full keyframe by construction.
func (w *Workstation) adoptConnection(info wire.DatasetInfo, codec uint8, selfID int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.info = info
	w.selfID = selfID
	w.codec = codec
	if codec >= wire.CodecV2 {
		w.dec = wire.NewFrameDecoder(info.Quantizer())
	} else {
		w.dec = nil
	}
}

// New connects the application layer over an established dlib client:
// it fetches the dataset info and prepares the renderer.
func New(c *dlib.Client, cfg Config) (*Workstation, error) {
	w, err := newWorkstation(cfg)
	if err != nil {
		return nil, err
	}
	info, codec, selfID, err := handshake(c, w.wantCodec)
	if err != nil {
		return nil, err
	}
	w.c = c
	w.adoptConnection(info, codec, selfID)
	return w, nil
}

// NewResilient connects the workstation over a redial-capable client:
// on connection loss the network layer reconnects with capped
// exponential backoff and replays the handshake, resyncing the session
// identity, while the render loop keeps drawing the last good geometry
// (figure 9's decoupling, extended to failures). ropts.OnConnect is
// overridden; ropts.CallTimeout defaults to 2s so a stalled link can
// never freeze the network goroutine.
func NewResilient(dial dlib.DialFunc, cfg Config, ropts dlib.RedialOptions) (*Workstation, error) {
	w, err := newWorkstation(cfg)
	if err != nil {
		return nil, err
	}
	if ropts.CallTimeout <= 0 {
		ropts.CallTimeout = 2 * time.Second
	}
	ropts.OnConnect = func(c *dlib.Client) error {
		info, codec, selfID, err := handshake(c, w.wantCodec)
		if err != nil {
			return err
		}
		w.adoptConnection(info, codec, selfID)
		return nil
	}
	r := dlib.NewRedialClient(dial, ropts)
	if err := r.Connect(context.Background()); err != nil {
		return nil, err
	}
	w.c = r
	w.redial = r
	return w, nil
}

// Close closes the workstation's connection; a resilient workstation
// stops redialing.
func (w *Workstation) Close() error { return w.c.Close() }

// Info returns the dataset description received at connect time.
func (w *Workstation) Info() wire.DatasetInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.info
}

// sessionID returns our session id on the server; it changes after a
// reconnect (sessions are per-connection).
func (w *Workstation) sessionID() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.selfID
}

// Codec returns the frame codec negotiated for the current connection
// (wire.CodecV1 or wire.CodecV2).
func (w *Workstation) Codec() uint8 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.codec
}

// Reconnects returns how many times the network layer has redialed
// (always 0 for a non-resilient workstation).
func (w *Workstation) Reconnects() int64 {
	if w.redial == nil {
		return 0
	}
	return w.redial.Redials()
}

// LastNetError returns the most recent NetStep failure, or nil.
func (w *Workstation) LastNetError() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// Framebuffer exposes the display for PPM dumps and tests.
func (w *Workstation) Framebuffer() *render.Framebuffer { return w.fb }

// Queue adds a command to the next network frame.
func (w *Workstation) Queue(cmd wire.Command) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = append(w.pending, cmd)
}

// Latest returns the most recent environment state (zero value before
// the first exchange).
func (w *Workstation) Latest() (wire.FrameReply, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.latest, w.haveOne
}

// NetStep performs one network frame: send the user's pose, gestures,
// and queued commands; receive and store the new shared state. This is
// the loop that must complete "in less than 1/8th of a second" (§1.2).
func (w *Workstation) NetStep(pose vr.Pose) error {
	w.mu.Lock()
	cmds := w.pending
	w.pending = nil
	w.mu.Unlock()

	// Gesture-driven interaction synthesizes grab/move/release
	// commands from the hand state and the last known rake set.
	if latest, ok := w.Latest(); ok {
		cmds = append(cmds, w.interact.commands(pose, latest.Rakes)...)
	}

	payload := wire.EncodeClientUpdate(wire.ClientUpdate{
		Head:     pose.Head,
		Hand:     pose.Hand,
		Gesture:  uint8(pose.Gesture),
		Commands: cmds,
	})
	start := w.clock.Now()
	out, err := w.c.Call(wire.ProcFrame, payload)
	if err != nil {
		// Degrade, don't desync: the commands this frame carried were
		// never acknowledged, so put them back at the head of the queue
		// to replay after the network layer reconnects. The latest good
		// state is untouched — the render loop keeps drawing it.
		w.netErrors.Add(1)
		w.mu.Lock()
		w.pending = append(append([]wire.Command{}, cmds...), w.pending...)
		w.lastErr = err
		w.mu.Unlock()
		return fmt.Errorf("client: frame call: %w", err)
	}
	// A reconnect during the Call above reran the handshake, so the
	// codec and decoder read here are the ones the replying connection
	// negotiated.
	w.mu.Lock()
	dec := w.dec
	w.mu.Unlock()
	var reply wire.FrameReply
	if dec != nil {
		reply, err = dec.Decode(out)
	} else {
		reply, err = wire.DecodeFrameReply(out)
	}
	if err != nil {
		// A failed v2 decode leaves the decoder's shadow partially
		// applied — every later delta would build on state the server
		// never sent. Re-run the codec handshake: the server resets its
		// per-session encoder, we install a fresh decoder, and the next
		// frame is a full keyframe by construction.
		w.netErrors.Add(1)
		var resyncErr error
		if dec != nil {
			resyncErr = w.resyncCodec()
		}
		w.mu.Lock()
		w.lastErr = err
		w.mu.Unlock()
		if resyncErr != nil {
			return fmt.Errorf("client: frame decode: %v (codec resync also failed: %w)", err, resyncErr)
		}
		return fmt.Errorf("client: frame decode: %w", err)
	}
	w.netNanos.Add(int64(w.clock.Now().Sub(start)))
	w.netFrames.Add(1)
	w.bytesDown.Add(int64(len(out)))

	w.mu.Lock()
	if !w.haveOne || reply.Round != w.latest.Round {
		w.rounds++
	}
	if reply.Degraded > 0 {
		w.degradedFrames++
	}
	if reply.Tools != nil {
		w.toolFrames++
	}
	w.latest = reply
	w.haveOne = true
	w.lastErr = nil
	w.mu.Unlock()
	return nil
}

// resyncCodec re-runs the frame-codec handshake on the live
// connection after a corrupted codec-v2 stream: vw.hello2 makes the
// server drop its per-session delta shadow and start the stream over
// from a keyframe, and the fresh decoder installed here matches it.
func (w *Workstation) resyncCodec() error {
	out, err := w.c.Call(wire.ProcHello2, wire.EncodeHelloRequest(w.wantCodec))
	if err != nil {
		return err
	}
	codec, info, err := wire.DecodeHelloReply(out)
	if err != nil {
		return err
	}
	w.adoptConnection(info, codec, w.sessionID())
	return nil
}

// RenderFrame redraws the stereo display from the latest state at the
// given head pose. It runs decoupled from NetStep: "the head-tracked
// display of the virtual environment can run at very high rates" even
// while the command loop is slower.
func (w *Workstation) RenderFrame(head vmath.Mat4) error {
	state, ok := w.Latest()
	if !ok {
		w.fb.Clear(0, 0, 0)
		w.renderFrames.Add(1)
		return nil
	}
	self := w.sessionID()
	err := w.rig.RenderAnaglyph(w.fb, head, func(r *render.Renderer) {
		drawScene(r, state, self)
	})
	if err != nil {
		return err
	}
	w.renderFrames.Add(1)
	return nil
}

// drawScene draws geometry, rakes, and other users (self excluded —
// you do not see your own head from inside it).
func drawScene(r *render.Renderer, state wire.FrameReply, selfID int64) {
	// Degraded frames tint path geometry amber: the governor shed
	// integration work to hold the frame budget, so what you see is a
	// reduced-fidelity view of the flow, not the full rake output.
	pathColor := render.Color{R: 230, G: 230, B: 230}
	if state.Degraded > 0 {
		pathColor = render.Color{R: 230, G: 180, B: 90}
	}
	for _, g := range state.Geometry {
		switch g.Tool {
		case 2: // streakline: smoke
			r.Additive = true
			for _, line := range g.Lines {
				r.Polyline(line, render.Color{R: 70, G: 70, B: 70})
			}
			r.Additive = false
		default:
			for _, line := range g.Lines {
				r.Polyline(line, pathColor)
			}
		}
	}
	for _, rk := range state.Rakes {
		c := render.Color{R: 160, G: 160, B: 160}
		if rk.Holder != 0 {
			c = render.Color{R: 255, G: 255, B: 255}
		}
		r.Line(rk.P0, rk.P1, c)
	}
	if state.Tools != nil {
		drawTools(r, state.Tools)
	}
	// Other users render as a hand tripod plus a head glyph, so
	// participants see "where everyone is" (§5.1: "the position of the
	// users' heads would also be sent so that they may be displayed as
	// part of the virtual environment").
	for _, u := range state.Users {
		if u.ID == selfID {
			continue
		}
		h := u.Hand
		const s = 0.2
		c := render.Color{R: 200, G: 200, B: 200}
		r.Line(h.Sub(vmath.V3(s, 0, 0)), h.Add(vmath.V3(s, 0, 0)), c)
		r.Line(h.Sub(vmath.V3(0, s, 0)), h.Add(vmath.V3(0, s, 0)), c)
		r.Line(h.Sub(vmath.V3(0, 0, s)), h.Add(vmath.V3(0, 0, s)), c)
		drawHead(r, u.Head, c)
	}
}

// drawTools draws the shared-tool geometry: isosurfaces and vortex
// cores as wireframe triangle soups (each geometry record is a flat
// vertex list, three per triangle), the cutting plane as its hedgehog
// of velocity vectors (two points per glyph). Held tools brighten,
// matching the rake grab highlight.
func drawTools(r *render.Renderer, t *wire.ToolsReply) {
	for _, g := range t.Geoms {
		var c render.Color
		var held bool
		pairs := false
		switch g.Tool {
		case wire.ToolKindIso:
			c = render.Color{R: 80, G: 170, B: 200}
			held = t.Iso.Holder != 0
		case wire.ToolKindPlane:
			c = render.Color{R: 90, G: 200, B: 110}
			held = t.Plane.Holder != 0
			pairs = true
		case wire.ToolKindVortex:
			c = render.Color{R: 210, G: 110, B: 200}
			held = t.Vortex.Holder != 0
		default:
			continue
		}
		if held {
			c = render.Color{R: 255, G: 255, B: 255}
		}
		p := g.Points
		if pairs {
			for i := 0; i+1 < len(p); i += 2 {
				r.Line(p[i], p[i+1], c)
			}
			continue
		}
		r.Triangles(p, c)
	}
}

// drawHead draws a wireframe head glyph (a square face plate with a
// nose line showing gaze direction) at the user's head matrix.
func drawHead(r *render.Renderer, head vmath.Mat4, c render.Color) {
	const s = 0.15
	plate := [5]vmath.Vec3{
		head.TransformPoint(vmath.V3(-s, -s, 0)),
		head.TransformPoint(vmath.V3(s, -s, 0)),
		head.TransformPoint(vmath.V3(s, s, 0)),
		head.TransformPoint(vmath.V3(-s, s, 0)),
	}
	plate[4] = plate[0]
	r.Polyline(plate[:], c)
	// Gaze: the head looks down its local -Z.
	center := head.TransformPoint(vmath.Vec3{})
	nose := head.TransformPoint(vmath.V3(0, 0, -2*s))
	r.Line(center, nose, c)
}

// Stats returns a snapshot of the counters.
func (w *Workstation) Stats() Stats {
	w.mu.Lock()
	rounds := w.rounds
	lastRound := w.latest.Round
	degraded := w.degradedFrames
	lastDegraded := w.latest.Degraded
	toolFrames := w.toolFrames
	var lastToolPoints int64
	if w.latest.Tools != nil {
		lastToolPoints = int64(w.latest.Tools.TotalPoints())
	}
	w.mu.Unlock()
	return Stats{
		NetFrames:      w.netFrames.Load(),
		RenderFrames:   w.renderFrames.Load(),
		NetErrors:      w.netErrors.Load(),
		NetTime:        time.Duration(w.netNanos.Load()),
		BytesDown:      w.bytesDown.Load(),
		Rounds:         rounds,
		LastRound:      lastRound,
		DegradedFrames: degraded,
		LastDegraded:   lastDegraded,
		ToolFrames:     toolFrames,
		LastToolPoints: lastToolPoints,
	}
}

// RunDecoupled drives the two processes concurrently for netFrames
// network rounds with a scripted user: the render loop draws at least
// once, then spins freely until the network loop finishes. Returns
// achieved rates in frames per second of wall time.
func (w *Workstation) RunDecoupled(user *vr.ScriptedUser, netFrames int) (netHz, renderHz float64, err error) {
	start := w.clock.Now()
	done := make(chan struct{})
	var netErr error
	// The devices belong to the network goroutine (it samples them at
	// the command rate); the render loop reads the latest head pose
	// from a shared snapshot, exactly how figure 9's shared memory
	// carries tracking data between the two processes.
	var poseMu sync.Mutex
	head := vmath.Identity()
	go func() {
		defer close(done)
		for i := 0; i < netFrames; i++ {
			pose := user.Step()
			poseMu.Lock()
			head = pose.Head
			poseMu.Unlock()
			if e := w.NetStep(pose); e != nil {
				// A resilient workstation degrades instead of dying:
				// the redial layer heals the link on a later round
				// while the render loop below keeps drawing the last
				// good geometry.
				if w.redial == nil {
					netErr = e
					return
				}
			}
		}
	}()
	var renders int64
	for {
		// Draw before looking at done: a network loop that finishes
		// before this goroutine is first scheduled must not leave the
		// run without a frame.
		poseMu.Lock()
		h := head
		poseMu.Unlock()
		if e := w.RenderFrame(h); e != nil {
			return 0, 0, e
		}
		renders++
		select {
		case <-done:
			elapsed := w.clock.Now().Sub(start).Seconds()
			if netErr != nil {
				return 0, 0, netErr
			}
			return float64(netFrames) / elapsed, float64(renders) / elapsed, nil
		default:
		}
	}
}
