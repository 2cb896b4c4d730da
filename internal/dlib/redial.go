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

// Caller is the call surface shared by Client and RedialClient, so
// application layers (internal/client's workstation) can run over
// either a fixed connection or a self-healing one.
type Caller interface {
	Call(proc string, payload []byte) ([]byte, error)
	CallContext(ctx context.Context, proc string, payload []byte) ([]byte, error)
	Close() error
}

var (
	_ Caller = (*Client)(nil)
	_ Caller = (*RedialClient)(nil)
)

// DialFunc produces a fresh transport connection. Redial wraps it with
// backoff; tests hand out netsim fault pipes, production hands out TCP.
type DialFunc func() (net.Conn, error)

// RedialOptions tunes a RedialClient.
type RedialOptions struct {
	// BaseBackoff is the delay before the second dial attempt; each
	// failure doubles it up to MaxBackoff. Defaults 10ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds consecutive dial failures per reconnect; 0
	// means 8. When exhausted the triggering call fails, but a later
	// call starts a fresh reconnect cycle.
	MaxAttempts int
	// CallTimeout is applied to every call without its own deadline.
	CallTimeout time.Duration
	// OnConnect runs after every successful (re)dial, re-establishing
	// session state — dlib sessions are per-connection, so handshakes
	// (hello, whoami) must be replayed. A non-nil error discards the
	// connection and retries.
	OnConnect func(*Client) error
	// Clock paces the reconnect backoff; nil uses the wall clock.
	// Chaos tests inject a netsim.ManualClock so backoff schedules are
	// replayable.
	Clock netsim.Clock
}

// withDefaults fills the zero values.
func (o RedialOptions) withDefaults() RedialOptions {
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.Clock == nil {
		o.Clock = netsim.RealClock
	}
	return o
}

// RedialClient is a dlib client that survives connection loss: when
// the underlying Client dies it redials with capped exponential
// backoff and replays OnConnect to rebuild session state. Safe for
// concurrent use.
type RedialClient struct {
	dial DialFunc
	opts RedialOptions

	// connectMu serializes reconnect cycles so concurrent failed calls
	// produce one dial storm, not many.
	connectMu sync.Mutex

	mu       sync.Mutex
	cur      *Client
	gen      int // increments per successful connect
	redials  int64
	attempts int64
	closed   bool
}

// NewRedialClient wraps dial. No connection is made until the first
// call (or an explicit Connect).
func NewRedialClient(dial DialFunc, opts RedialOptions) *RedialClient {
	return &RedialClient{dial: dial, opts: opts.withDefaults()}
}

// Redials returns how many successful reconnects have happened (the
// initial connect not included).
func (r *RedialClient) Redials() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redials
}

// Connect ensures a live connection, dialing if needed.
func (r *RedialClient) Connect(ctx context.Context) error {
	_, _, err := r.client(ctx)
	return err
}

// client returns a healthy Client and its generation, reconnecting if
// the current one is dead.
func (r *RedialClient) client(ctx context.Context) (*Client, int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, errClientClosed
	}
	if r.cur != nil && r.cur.terminalErr() == nil {
		c, gen := r.cur, r.gen
		r.mu.Unlock()
		return c, gen, nil
	}
	r.mu.Unlock()
	return r.reconnect(ctx)
}

// reconnect dials with capped exponential backoff until a connection
// survives OnConnect, attempts run out, or ctx expires.
func (r *RedialClient) reconnect(ctx context.Context) (*Client, int, error) {
	r.connectMu.Lock()
	defer r.connectMu.Unlock()
	// Another caller may have reconnected while we waited.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, errClientClosed
	}
	if r.cur != nil && r.cur.terminalErr() == nil {
		c, gen := r.cur, r.gen
		r.mu.Unlock()
		return c, gen, nil
	}
	hadConn := r.gen > 0
	r.mu.Unlock()

	backoff := r.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-r.opts.Clock.After(backoff):
			case <-ctx.Done():
				return nil, 0, fmt.Errorf("dlib: redial: %w", ctx.Err())
			}
			backoff *= 2
			if backoff > r.opts.MaxBackoff {
				backoff = r.opts.MaxBackoff
			}
		}
		r.mu.Lock()
		r.attempts++
		r.mu.Unlock()
		conn, err := r.dial()
		if err != nil {
			lastErr = err
			continue
		}
		c := NewClient(conn)
		c.Timeout = r.opts.CallTimeout
		if r.opts.OnConnect != nil {
			if err := r.opts.OnConnect(c); err != nil {
				c.Close()
				lastErr = fmt.Errorf("dlib: on-connect: %w", err)
				continue
			}
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			return nil, 0, errClientClosed
		}
		r.cur = c
		r.gen++
		if hadConn {
			r.redials++
		}
		gen := r.gen
		r.mu.Unlock()
		return c, gen, nil
	}
	if lastErr == nil {
		lastErr = errors.New("dlib: redial: no attempts")
	}
	return nil, 0, fmt.Errorf("dlib: redial gave up after %d attempts: %w",
		r.opts.MaxAttempts, lastErr)
}

// drop discards the client of generation gen so the next call
// reconnects; a newer generation is left alone.
func (r *RedialClient) drop(gen int) {
	r.mu.Lock()
	var dead *Client
	if r.gen == gen && r.cur != nil {
		dead = r.cur
		r.cur = nil
	}
	r.mu.Unlock()
	if dead != nil {
		dead.Close()
	}
}

// Call invokes proc on the current connection, dialing first if
// needed. It does NOT retry a call that failed in flight — the server
// may have executed it; the next call redials.
func (r *RedialClient) Call(proc string, payload []byte) ([]byte, error) {
	return r.CallContext(context.Background(), proc, payload)
}

// CallContext is Call bounded by ctx.
func (r *RedialClient) CallContext(ctx context.Context, proc string, payload []byte) ([]byte, error) {
	c, gen, err := r.client(ctx)
	if err != nil {
		return nil, err
	}
	out, err := c.CallContext(ctx, proc, payload)
	var remote *RemoteError
	if err != nil && !errors.As(err, &remote) {
		// Transport-level failure: this connection is suspect even if
		// only the deadline fired (a stalled link looks like that).
		// Drop it so the next call redials.
		r.drop(gen)
	}
	return out, err
}

// Close shuts down the current connection and stops future redials.
func (r *RedialClient) Close() error {
	r.mu.Lock()
	r.closed = true
	c := r.cur
	r.cur = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
