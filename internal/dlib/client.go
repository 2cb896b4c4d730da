package dlib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// errClientClosed is returned by calls started after Close.
var errClientClosed = errors.New("dlib: client closed")

// Client is a dlib client connection. One call owns the connection at a
// time: it writes its request and reads the reply on the caller's
// goroutine, and concurrent callers take turns — §4's serial execution,
// seen from the caller's side. A call that fails in transport, reads a
// reply out of step or outlives its context closes the connection and
// fails the client, so no later call can read a stale reply.
type Client struct {
	conn net.Conn

	// timeout, when non-zero, bounds every call whose context carries
	// no deadline. RedialClient sets it from RedialOptions.CallTimeout,
	// so the handshake calls its OnConnect makes stay bounded.
	timeout time.Duration

	turn   sync.Mutex // held for a whole call
	nextID uint64     // the last request id written, under turn

	mu  sync.Mutex
	err error // why the client ended, errClientClosed after Close; set once
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

// fail records err as the client's end unless it already has one,
// closing the connection the first time, and returns the recorded end.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		c.conn.Close()
	}
	return c.err
}

// terminalErr returns the client's end, or nil while the connection is
// healthy. A non-nil result means every future call will fail;
// redial-capable callers use this to decide to reconnect.
func (c *Client) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Call invokes proc with payload and blocks for the reply, bounded by
// the client's default deadline (if set).
func (c *Client) Call(proc string, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), proc, payload)
}

// CallContext invokes proc with payload and blocks for the reply or
// the end of ctx. A ctx that ends first closes the connection — that
// also frees a read wedged by a stall or partition — and the call
// returns ctx's error; the client is failed, so a late reply is never
// read. A caller waiting for its turn waits out the call ahead of it.
func (c *Client) CallContext(ctx context.Context, proc string, payload []byte) ([]byte, error) {
	if _, has := ctx.Deadline(); !has && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	c.turn.Lock()
	defer c.turn.Unlock()
	if err := c.terminalErr(); err != nil {
		return nil, err
	}
	c.nextID++
	stop := func() bool { return true }
	if ctx.Done() != nil { // a context that can end
		stop = context.AfterFunc(ctx, func() { c.fail(ended(ctx, proc)) })
	}
	f, err := c.exchange(frame{kind: frameCall, id: c.nextID, proc: proc, payload: payload})
	if !stop() {
		err = ended(ctx, proc)
	}
	if err != nil {
		return nil, c.fail(err)
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
func (c *Client) exchange(call frame) (frame, error) {
	if err := writeFrame(c.conn, call); err != nil {
		return frame{}, fmt.Errorf("dlib: send %s: %w", call.proc, err)
	}
	f, err := readFrame(c.conn)
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

// Close shuts the connection down; a call in flight fails.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil // the connection is closed already
	}
	c.err = errClientClosed
	return c.conn.Close()
}
