package dlib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netsim"
)

// errClientClosed is returned by calls started after Close.
var errClientClosed = errors.New("dlib: client closed")

// DialFunc produces a fresh transport connection. A redialing client
// calls it with backoff; tests hand out netsim fault pipes, production
// hands out TCP.
type DialFunc func() (net.Conn, error)

// RedialOptions tunes a redialing client (NewRedialClient).
type RedialOptions struct {
	// BaseBackoff is the delay before the second dial attempt; each
	// failure doubles it up to MaxBackoff. Defaults 10ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds consecutive dial failures per reconnect; 0
	// means 8. When exhausted the triggering call fails, but a later
	// call starts a fresh reconnect cycle.
	MaxAttempts int
	// CallTimeout bounds every call without its own deadline, the
	// handshake calls OnConnect makes included: it is the one bound on
	// a call's wait. A call it ends closes its connection, and the next
	// call redials.
	CallTimeout time.Duration
	// OnConnect runs after every successful (re)dial, re-establishing
	// session state — dlib sessions are per-connection, so handshakes
	// (hello, whoami) must be replayed. Its calls go through call, which
	// is bound to the new connection and runs inside the turn of the
	// call that dialed. A non-nil error discards the connection and
	// retries.
	OnConnect func(call func(proc string, payload []byte) ([]byte, error)) error
	// Clock paces the reconnect backoff; nil uses the wall clock.
	// Chaos tests inject a netsim.ManualClock so backoff schedules are
	// replayable.
	Clock netsim.Clock
}

// Client is a dlib client connection. One call owns the connection at a
// time: it writes its request and reads the reply on the caller's
// goroutine, and concurrent callers take turns — §4's serial execution,
// seen from the caller's side. A call that fails in transport, reads a
// reply out of step or outlives its context closes the connection.
//
// A client of one connection (NewClient) stays failed after that. A
// redialing client (NewRedialClient) dials again at its next call,
// inside that call's turn: callers queued behind it wait for the one
// redial, and the call that failed is never retried — the server may
// have run it.
type Client struct {
	dial DialFunc      // nil for a client of one connection
	opts RedialOptions // a redialing client's, defaults filled

	turn   sync.Mutex // held for a whole call, a redial included
	nextID uint64     // the last request id written on conn, under turn

	mu       sync.Mutex
	conn     net.Conn // nil until a redialing client first dials
	err      error    // why conn ended, errClientClosed after Close
	connects int64    // connections that passed OnConnect
}

// Dial connects to a dlib server at addr over TCP.
//
//vw:testonly
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dlib: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (possibly a netsim link).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// NewRedialClient returns a client that survives connection loss: it
// dials on its first call, and a call that finds its connection dead
// redials with capped exponential backoff and replays OnConnect to
// rebuild session state.
func NewRedialClient(dial DialFunc, opts RedialOptions) *Client {
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.Clock == nil {
		opts.Clock = netsim.RealClock
	}
	return &Client{dial: dial, opts: opts}
}

// Redials returns how many successful reconnects have happened (the
// initial connect not included).
func (c *Client) Redials() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(c.connects-1, 0)
}

// fail records err as the end of conn unless conn already has one or
// is no longer the client's, closing it the first time, and returns
// the client's recorded end.
func (c *Client) fail(conn net.Conn, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == conn && c.err == nil {
		c.err = err
		conn.Close()
	}
	return c.err
}

// Connect makes sure the client has a live connection, dialing one if
// it redials and has none.
func (c *Client) Connect(ctx context.Context) error {
	c.turn.Lock()
	defer c.turn.Unlock()
	_, err := c.connection(ctx)
	return err
}

// Call invokes proc with payload and blocks for the reply, bounded by
// RedialOptions.CallTimeout (if set).
func (c *Client) Call(proc string, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), proc, payload)
}

// CallContext invokes proc with payload and blocks for the reply or
// the end of ctx. A ctx that ends first closes the connection — that
// also frees a read wedged by a stall or partition — and the call
// returns ctx's error; a late reply is never read. A caller waiting
// for its turn waits out the call ahead of it, and its redial.
//
//vw:testonly
func (c *Client) CallContext(ctx context.Context, proc string, payload []byte) ([]byte, error) {
	c.turn.Lock()
	defer c.turn.Unlock()
	conn, err := c.connection(ctx)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(ctx, conn, proc, payload)
}

// connection returns the connection this turn's call runs on. A
// redialing client whose connection ended, or was never made, dials
// one here; the caller holds the turn.
func (c *Client) connection(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	conn, err := c.conn, c.err
	c.mu.Unlock()
	if (err == nil && conn != nil) || c.dial == nil || err == errClientClosed {
		return conn, err
	}
	backoff := c.opts.BaseBackoff
	for attempt := range c.opts.MaxAttempts {
		if attempt > 0 {
			select {
			case <-c.opts.Clock.After(backoff):
			case <-ctx.Done():
				return nil, fmt.Errorf("dlib: redial: %w", ctx.Err())
			}
			backoff = min(2*backoff, c.opts.MaxBackoff)
		}
		if conn, err = c.dial(); err == nil {
			err = c.adopt(ctx, conn)
		}
		if err == nil || err == errClientClosed {
			return conn, err
		}
	}
	return nil, fmt.Errorf("dlib: redial gave up after %d attempts: %w", c.opts.MaxAttempts, err)
}

// adopt makes conn the client's connection and replays OnConnect on
// it, unless the client was closed meanwhile.
func (c *Client) adopt(ctx context.Context, conn net.Conn) error {
	c.mu.Lock()
	if c.err == errClientClosed {
		c.mu.Unlock()
		conn.Close()
		return errClientClosed
	}
	c.conn, c.err, c.nextID = conn, nil, 0
	c.mu.Unlock()
	if c.opts.OnConnect != nil {
		err := c.opts.OnConnect(func(proc string, payload []byte) ([]byte, error) {
			return c.roundTrip(ctx, conn, proc, payload)
		})
		if err != nil {
			if c.fail(conn, err) == errClientClosed {
				return errClientClosed
			}
			return fmt.Errorf("dlib: on-connect: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connects++
	return nil
}

// roundTrip makes one call on conn, bounded by ctx or, if ctx has no
// deadline, by CallTimeout. The caller holds the turn.
func (c *Client) roundTrip(ctx context.Context, conn net.Conn, proc string, payload []byte) ([]byte, error) {
	if _, has := ctx.Deadline(); !has && c.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
	}
	c.nextID++
	stop := func() bool { return true }
	if ctx.Done() != nil { // a context that can end
		stop = context.AfterFunc(ctx, func() { c.fail(conn, ended(ctx, proc)) })
	}
	f, err := exchange(conn, frame{kind: frameCall, id: c.nextID, proc: proc, payload: payload})
	if !stop() {
		err = ended(ctx, proc)
	}
	if err != nil {
		return nil, c.fail(conn, err)
	}
	if f.kind == frameError {
		return nil, &RemoteError{Proc: proc, Msg: string(f.payload)}
	}
	return f.payload, nil
}

// ended is the error of a call whose context ended.
func ended(ctx context.Context, proc string) error {
	return fmt.Errorf("dlib: call %s: %w", proc, ctx.Err())
}

// exchange writes one call and reads its reply, which must answer it.
func exchange(conn net.Conn, call frame) (frame, error) {
	if err := writeFrame(conn, call); err != nil {
		return frame{}, fmt.Errorf("dlib: send %s: %w", call.proc, err)
	}
	f, err := readFrame(conn)
	switch {
	case err != nil:
		return frame{}, fmt.Errorf("dlib: connection lost: %w", err)
	case f.kind != frameReply && f.kind != frameError:
		return frame{}, fmt.Errorf("dlib: unexpected reply frame type %d", f.kind)
	case f.id != call.id:
		return frame{}, fmt.Errorf("dlib: reply id %d answers no call (call %d is waiting)", f.id, call.id)
	}
	return f, nil
}

// Close shuts the connection down and stops a redialing client from
// dialing again; a call in flight fails.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.err == nil && c.conn != nil
	c.err = errClientClosed
	if !live {
		return nil // no connection, or it is closed already
	}
	return c.conn.Close()
}
