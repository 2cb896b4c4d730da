package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compute"
	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/vmath"
)

// Span names. The tree under one frame is
//
//	frame > client.netstep > link.<node> > <node>.serve > link.<next> ...
//	frame > client.render
//	origin.serve > compute.engine | store.load
//
// and prefetch loads hang off "background" instead of a frame.
const (
	spanFrame      = "frame"
	spanNetStep    = "client.netstep"
	spanRender     = "client.render"
	spanEngine     = "compute.engine"
	spanLoad       = "store.load"
	spanBackground = "background"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; frame is workstation*framesPerWS + frame index, -1 for work
// no frame waits on.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Frame  int    `json:"frame"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Points and Units are the work an engine call reported.
	Points int64 `json:"points,omitempty"`
	Units  int64 `json:"units,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. Only benchmark code records into
// it: the driver around NetStep/RenderFrame, the conn wrappers on
// every hop, and the engine and store decorators. Lock-step driving is
// what makes the bookkeeping trivial — one frame is in flight, so
// whatever happens while tracer.frame names it belongs to it.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// frame is the id of the frame in flight, -1 between frames.
	frame atomic.Int64

	// chains[ws] lists the hops a workstation's calls cross, nearest
	// first; connecting is the workstation whose handshake is running,
	// so lazily dialed relay legs land on the right chain.
	chains     [][]*hop
	connecting atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.frame.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns a copy of the spans recorded so far; prefetch loads may
// still be landing on other goroutines.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// hop is one dialed connection with both ends wrapped: the caller's
// end stamps request-written .. reply-read, the callee's end stamps
// request-read .. reply-written.
type hop struct {
	node   string // the callee: "origin", "leaf", "mid"
	client *stampConn
	server *stampConn
}

// stampConn records when traffic crossed one end of a pipe. A frame
// makes at most one call per hop, so four stamps per frame suffice;
// the driver harvests and clears them after each frame.
type stampConn struct {
	net.Conn
	t *tracer

	firstWrite atomic.Int64 // start of the first Write since reset
	lastWrite  atomic.Int64 // end of the last Write
	firstRead  atomic.Int64 // end of the first Read
	lastRead   atomic.Int64 // end of the last Read
}

func (c *stampConn) Write(p []byte) (int, error) {
	c.firstWrite.CompareAndSwap(0, c.t.now())
	n, err := c.Conn.Write(p)
	c.lastWrite.Store(c.t.now())
	return n, err
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := c.t.now()
	c.firstRead.CompareAndSwap(0, now)
	c.lastRead.Store(now)
	return n, err
}

func (c *stampConn) reset() {
	c.firstWrite.Store(0)
	c.lastWrite.Store(0)
	c.firstRead.Store(0)
	c.lastRead.Store(0)
}

// wrapPipe wraps both ends of a freshly made pipe and appends the hop
// to the chain of the workstation being connected.
func (t *tracer) wrapPipe(node string, serverEnd, clientEnd net.Conn) (net.Conn, net.Conn) {
	h := &hop{
		node:   node,
		server: &stampConn{Conn: serverEnd, t: t},
		client: &stampConn{Conn: clientEnd, t: t},
	}
	ws := int(t.connecting.Load())
	t.mu.Lock()
	for len(t.chains) <= ws {
		t.chains = append(t.chains, nil)
	}
	t.chains[ws] = append(t.chains[ws], h)
	t.mu.Unlock()
	return h.server, h.client
}

// harvest turns the stamps a frame left on workstation ws's chain into
// spans (when frame >= 0) and clears them for the next frame.
func (t *tracer) harvest(ws, frame int) {
	if ws >= len(t.chains) {
		return
	}
	parent := spanNetStep
	for _, h := range t.chains[ws] {
		cs, ce := h.client.firstWrite.Load(), h.client.lastRead.Load()
		ss, se := h.server.firstRead.Load(), h.server.lastWrite.Load()
		h.client.reset()
		h.server.reset()
		if frame < 0 || cs == 0 || ce == 0 || ss == 0 || se == 0 {
			continue
		}
		// A stamp is taken when its goroutine next runs, which for the
		// callee's reply-written stamp can be after the caller has read
		// the reply and moved on. The request cannot be read before it
		// is written nor the reply written after it is read, so the
		// serve span is clamped into the call span.
		ss, se = max(ss, cs), min(se, ce)
		link, serve := "link."+h.node, h.node+".serve"
		t.add(span{Name: link, Parent: parent, Frame: frame, Start: cs, End: ce})
		t.add(span{Name: serve, Parent: link, Frame: frame, Start: ss, End: se})
		parent = serve
	}
}

// servedBy is the span name of the origin's handler, the parent of
// engine and foreground-load spans.
const servedBy = "origin.serve"

// tracedEngine times every call into the compute engine.
type tracedEngine struct {
	inner compute.Engine
	t     *tracer
}

func (e *tracedEngine) Name() string { return e.inner.Name() }
func (e *tracedEngine) Workers() int { return e.inner.Workers() }

func (e *tracedEngine) record(start int64, st compute.Stats) {
	e.t.add(span{
		Name: spanEngine, Parent: servedBy, Frame: int(e.t.frame.Load()),
		Start: start, End: e.t.now(), Points: st.Points, Units: st.Units(),
	})
}

func (e *tracedEngine) Streamlines(s integrate.Sampler, seeds []vmath.Vec3, tm float32, o integrate.Options) ([][]vmath.Vec3, compute.Stats) {
	start := e.t.now()
	lines, st := e.inner.Streamlines(s, seeds, tm, o)
	e.record(start, st)
	return lines, st
}

func (e *tracedEngine) ParticlePaths(s integrate.Sampler, seeds []vmath.Vec3, t0, maxTime float32, o integrate.Options) ([][]vmath.Vec3, compute.Stats) {
	start := e.t.now()
	lines, st := e.inner.ParticlePaths(s, seeds, t0, maxTime, o)
	e.record(start, st)
	return lines, st
}

// tracedStore times every read that reaches the disk. A load issued by
// the prefetcher's goroutine is background work (no frame is blocked
// on it yet); anything else is on a handler's stack and holds a frame
// up. Only a Disk is ever wrapped: wrapping a store.Memory would hide
// its type from server.New and flip the server onto its I/O path.
type tracedStore struct {
	*store.Disk
	t *tracer
}

func (s *tracedStore) LoadStep(step int) (*field.Field, error) {
	start := s.t.now()
	f, err := s.Disk.LoadStep(step)
	end := s.t.now()
	if onPrefetchGoroutine() {
		s.t.add(span{Name: spanLoad, Parent: spanBackground, Frame: -1, Start: start, End: end})
	} else {
		s.t.add(span{Name: spanLoad, Parent: servedBy, Frame: int(s.t.frame.Load()), Start: start, End: end})
	}
	return f, err
}

// onPrefetchGoroutine reports whether the caller runs on a goroutine
// store.Prefetcher started, by looking for it on the stack.
func onPrefetchGoroutine() bool {
	var pcs [24]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		fr, more := frames.Next()
		if strings.Contains(fr.Function, "(*Prefetcher).Prefetch") {
			return true
		}
		if !more {
			return false
		}
	}
}

// cover returns how much of [lo, hi] the intervals cover, counting
// overlaps once.
func cover(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv[0], at), min(iv[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes computes, for every span of one frame, its duration minus
// the part of it its children cover, summed by span name.
func selfTimes(frame []span) map[string]int64 {
	kids := make(map[string][][2]int64)
	for _, s := range frame {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	out := make(map[string]int64)
	for _, s := range frame {
		out[s.Name] += s.dur() - cover(s.Start, s.End, kids[s.Name])
	}
	return out
}

// byFrame groups spans by frame id, dropping background work.
func byFrame(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		if s.Frame >= 0 {
			out[s.Frame] = append(out[s.Frame], s)
		}
	}
	return out
}

// writeJSONL dumps the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
