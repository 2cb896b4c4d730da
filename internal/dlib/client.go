package dlib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClientClosed is returned by calls started after Close.
var ErrClientClosed = errors.New("dlib: client closed")

// errAborted is the fallback when a call dies without a recorded
// transport error (should not happen in practice).
var errAborted = errors.New("dlib: call aborted")

// Client is a dlib client connection. It is safe for concurrent use;
// calls are matched to replies by request id, so multiple goroutines
// (e.g. the workstation's render and network processes) can share one
// connection.
type Client struct {
	conn net.Conn

	// Timeout, when non-zero, bounds every Call that is not already
	// carrying a context deadline. §1.2 demands the full command loop
	// complete in 1/8 s; a client that can block forever on a stalled
	// link (the UltraNet of §5.1) can never meet that.
	Timeout time.Duration

	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan frame
	err     error // terminal transport error
	closed  bool
}

// Dial connects to a dlib server at addr over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dlib: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (possibly a netsim link).
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, waiting: make(map[uint64]chan frame)}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			c.fail(fmt.Errorf("dlib: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.waiting[f.id]
		if ok {
			delete(c.waiting, f.id)
		}
		c.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// fail terminates all outstanding and future calls with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	waiters := c.waiting
	c.waiting = make(map[uint64]chan frame)
	c.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// Err returns the terminal transport error, or nil while the
// connection is healthy. A non-nil result means every future call will
// fail; redial-capable callers use this to decide to reconnect.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClientClosed
	}
	return nil
}

// callCtx applies the default Timeout when ctx carries no deadline.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); !has && c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// Call invokes proc with payload and blocks for the reply, bounded by
// the client's default Timeout (if set).
func (c *Client) Call(proc string, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), proc, payload)
}

// CallContext invokes proc with payload and blocks for the reply or
// the context. On expiry it returns ctx's error and abandons the call;
// a late reply is discarded by the read loop. The deadline bounds the
// caller even when the transport is wedged by a stall or partition —
// the blocked read stays behind on its goroutine and dies with the
// connection.
func (c *Client) CallContext(ctx context.Context, proc string, payload []byte) ([]byte, error) {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	id, ch, err := c.start(proc, payload)
	if err != nil {
		return nil, err
	}
	return c.wait(ctx, proc, id, ch)
}

func (c *Client) start(proc string, payload []byte) (uint64, chan frame, error) {
	c.mu.Lock()
	// Closed first: once its owner closes the client the read loop
	// records the dying connection too, and a call must not see that.
	if c.closed {
		c.mu.Unlock()
		return 0, nil, ErrClientClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan frame, 1)
	c.waiting[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := writeFrame(c.conn, frame{kind: frameCall, id: id, proc: proc, payload: payload})
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("dlib: send %s: %w", proc, err)
	}
	return id, ch, nil
}

// wait blocks for the reply frame, the context, or connection failure.
// When fail() closes the waiting channel, the stored transport error —
// not a zero frame — is what the caller sees.
func (c *Client) wait(ctx context.Context, proc string, id uint64, ch chan frame) ([]byte, error) {
	var f frame
	var ok bool
	select {
	case f, ok = <-ch:
	case <-ctx.Done():
		// Abandon the call: deregister so a late reply is dropped. The
		// reply may already be in flight on the buffered channel; prefer
		// it, since the work was done.
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		select {
		case f, ok = <-ch:
			if !ok {
				return nil, c.abortErr()
			}
		default:
			return nil, fmt.Errorf("dlib: call %s: %w", proc, ctx.Err())
		}
	}
	if !ok {
		return nil, c.abortErr()
	}
	switch f.kind {
	case frameReply:
		return f.payload, nil
	case frameError:
		return nil, &RemoteError{Proc: proc, Msg: string(f.payload)}
	default:
		return nil, fmt.Errorf("dlib: unexpected reply frame type %d", f.kind)
	}
}

// abortErr is the error for a call whose waiting channel was closed by
// fail().
func (c *Client) abortErr() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err == nil {
		err = errAborted
	}
	return err
}

// Close shuts the connection down; outstanding calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
