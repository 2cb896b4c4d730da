package dlib

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
)

// RemoteError is an error returned by a remote handler, as opposed to
// a transport failure.
type RemoteError struct {
	Proc string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("dlib: remote %s: %s", e.Proc, e.Msg)
}

// Handler executes one procedure. ctx carries the calling session and
// the server's persistent state. The returned bytes travel back to the
// caller.
//
// The reply is written after the serial dispatch lock is released (a
// slow client must not stall dispatch) and is never copied, so the
// returned buffer must stay untouched until that write completes. A
// handler meets that one of two ways: the buffer is fresh (allocated
// for this reply and never written again — a buffer shared across
// sessions counts, as long as it is replaced rather than rewritten when
// its content changes); or it is session-owned (only this session's
// later calls rewrite it — the connection loop finishes writing each
// reply before it reads the next call).
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Ctx is passed to every handler invocation.
type Ctx struct {
	// Session is per-connection persistent state, surviving from call
	// to call for the life of the connection.
	Session *Session
	// Server is the owning server, giving handlers access to shared
	// state.
	Server *Server

	// hangup, when set by the current handler via Hangup, closes the
	// connection after this call's reply (or error) is written.
	// Accessed only under the serial dispatch lock.
	hangup bool
}

// Hangup asks the server to close this connection once the current
// call's reply (or error) has been written. The peer sees a transport
// failure on its next operation and — with a redial-capable client —
// reconnects and replays its handshake. Proxies use this to propagate
// an upstream connection loss downstream: the session state on both
// hops dies together, so the re-handshake rebuilds it coherently
// (fresh identity, fresh codec shadows, keyframe resync).
func (c *Ctx) Hangup() { c.hangup = true }

// takeHangup consumes a pending hangup request.
func (c *Ctx) takeHangup() bool {
	h := c.hangup
	c.hangup = false
	return h
}

// Session is the per-connection environment.
type Session struct {
	// ID identifies the connection (dense, starting at 1).
	ID int64
}

// Server is a dlib server: a registry of procedures, its sessions and a
// single serial dispatch queue.
//
// Dispatch is deliberately serial across ALL clients, matching the
// paper: "The dlib calls are executed by the server in a single
// process environment as though there were only one client." That
// serialization is what makes first-come-first-served conflict
// resolution trivial for the windtunnel.
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	sessions map[int64]*Session
	nextSess int64
	closed   bool
	listener net.Listener
	wg       sync.WaitGroup

	// dispatchMu serializes handler execution.
	dispatchMu sync.Mutex

	// IdleTimeout, when non-zero, reaps sessions that send no call for
	// the duration: the connection is closed and OnDisconnect runs, so
	// a partitioned workstation cannot hold rake locks forever (§5.1's
	// first-come-first-served environment must not wedge on a ghost).
	IdleTimeout time.Duration
	// WriteTimeout, when non-zero, bounds each reply write; a client
	// that stops draining its socket is disconnected instead of
	// pinning the connection goroutine.
	WriteTimeout time.Duration
	// HandlerTimeout, when non-zero, bounds each handler execution:
	// the caller gets an error reply once it elapses. The runaway
	// handler keeps the serial dispatch lock until it actually returns
	// (Go cannot preempt it), but the network side stays responsive.
	HandlerTimeout time.Duration

	// Clock supplies per-call timing and the HandlerTimeout wait; nil
	// uses the wall clock. Tests inject a netsim.ManualClock so
	// timeout behavior is driven deterministically. Set before Serve.
	Clock netsim.Clock

	reaped atomic.Int64

	metrics procMetrics

	calls atomic.Int64

	// OnDisconnect, if set, runs after a session's connection closes,
	// so applications can release per-session resources (the
	// windtunnel frees the user's rake locks here). It runs on the
	// connection's goroutine, after the last call has finished.
	OnDisconnect func(sessionID int64)
}

// NewServer returns a server with no procedures registered: it answers
// exactly the ones its application registers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		sessions: make(map[int64]*Session),
	}
}

// Register installs a handler for proc. Registering after Serve has
// started is allowed; re-registering replaces.
func (s *Server) Register(proc string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[proc] = h
}

// CallCount returns the number of calls dispatched so far.
func (s *Server) CallCount() int64 { return s.calls.Load() }

// NumSessions returns the number of live client connections.
func (s *Server) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Serve accepts connections on l until Close. Each connection gets a
// session; calls from all connections funnel through one dispatch
// lock in arrival order.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dlib: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("dlib: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// ServeConn serves a single pre-established connection (used with
// net.Pipe in tests and by in-process clients). It blocks until the
// connection closes.
func (s *Server) ServeConn(conn net.Conn) {
	s.serveConn(conn)
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	s.nextSess++
	sess := &Session{ID: s.nextSess}
	s.sessions[sess.ID] = sess
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess.ID)
		hook := s.OnDisconnect
		s.mu.Unlock()
		if hook != nil {
			hook(sess.ID)
		}
	}()

	var writeMu sync.Mutex
	ctx := &Ctx{Session: sess, Server: s}
	for {
		if s.IdleTimeout > 0 {
			// net.Conn deadlines are absolute wall-clock times by
			// contract; a virtual clock cannot arm them.
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)) //vw:allow wallclock -- net.Conn deadline
		}
		f, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.reaped.Add(1)
			}
			return
		}
		if f.kind != frameCall {
			return
		}
		reply, hangup := s.dispatch(ctx, f)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)) //vw:allow wallclock -- net.Conn deadline
		}
		writeMu.Lock()
		err = writeFrame(conn, reply)
		writeMu.Unlock()
		if err != nil || hangup {
			return
		}
	}
}

// ReapedSessions returns how many sessions the idle timeout has
// disconnected.
//
//vw:testonly
func (s *Server) ReapedSessions() int64 { return s.reaped.Load() }

// dispatch runs one call under the global serial lock and returns the
// reply frame to write once the lock is released (see Handler for what
// that asks of the reply buffer). The second return value reports a
// handler Hangup request: the caller closes the connection after
// writing this reply.
func (s *Server) dispatch(ctx *Ctx, f frame) (frame, bool) {
	s.mu.Lock()
	h, ok := s.handlers[f.proc]
	s.mu.Unlock()
	if !ok {
		return frame{kind: frameError, id: f.id, payload: []byte("unknown procedure " + f.proc)}, false
	}
	clk := s.clock()
	s.dispatchMu.Lock()
	s.calls.Add(1)
	start := clk.Now()

	var out []byte
	var err error
	if s.HandlerTimeout <= 0 {
		out, err = safeCall(h, ctx, f.payload)
	} else {
		// Bounded execution: run the handler aside and wait at most
		// HandlerTimeout. On expiry the caller gets an error reply now;
		// the goroutine releases the dispatch lock whenever the handler
		// truly finishes, preserving the serial-execution invariant.
		done := make(chan struct{})
		go func() {
			out, err = safeCall(h, ctx, f.payload)
			close(done)
		}()
		select {
		case <-done:
		case <-clk.After(s.HandlerTimeout):
			s.metrics.record(f.proc, clk.Now().Sub(start), len(f.payload), 0, true)
			go func() {
				<-done // wait out the straggler, then free serial dispatch
				// The caller already got an error frame; the straggler's
				// reply is discarded, so drop any hangup request here
				// while still holding the dispatch lock.
				ctx.takeHangup()
				s.dispatchMu.Unlock()
			}()
			return frame{kind: frameError, id: f.id,
				payload: []byte(fmt.Sprintf("%s timed out after %v", f.proc, s.HandlerTimeout))}, false
		}
	}
	s.metrics.record(f.proc, clk.Now().Sub(start), len(f.payload), len(out), err != nil)
	hang := ctx.takeHangup()
	s.dispatchMu.Unlock()
	if err != nil {
		return frame{kind: frameError, id: f.id, payload: []byte(err.Error())}, hang
	}
	return frame{kind: frameReply, id: f.id, payload: out}, hang
}

// clock returns the injected Clock, defaulting to the wall clock.
func (s *Server) clock() netsim.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return netsim.RealClock
}

// safeCall shields the server from handler panics.
func safeCall(h Handler, ctx *Ctx, payload []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
			log.Printf("dlib: %v", err)
		}
	}()
	return h(ctx, payload)
}

// Close stops accepting and waits for connection goroutines to drain.
// Live connections are closed by their peers failing; callers wanting
// an immediate stop should close their own client connections too.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	return err
}
