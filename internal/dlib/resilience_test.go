package dlib

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitReturnsStoredErrorOnClosedChannel is the regression test for
// the closed-channel path: when fail() closes the waiting channel, the
// caller must see the recorded transport error, not a zero-frame
// decode or a generic abort.
func TestWaitReturnsStoredErrorOnClosedChannel(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	c := NewClient(clientEnd)
	defer c.Close()

	callErr := make(chan error, 1)
	go func() {
		_, err := c.Call("never.answered", nil)
		callErr <- err
	}()
	// Swallow the outgoing call frame, then kill the connection: the
	// read loop fails and closes the waiting channel.
	if _, err := readFrame(serverEnd); err != nil {
		t.Fatal(err)
	}
	serverEnd.Close()

	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("call returned nil after connection death")
		}
		if !strings.Contains(err.Error(), "connection lost") {
			t.Errorf("call error = %v, want the stored connection error", err)
		}
		if stored := c.terminalErr(); stored == nil || err.Error() != stored.Error() {
			t.Errorf("call error %q != stored client error %q", err, stored)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never returned after connection death")
	}
}

func TestCallContextDeadline(t *testing.T) {
	s, c := startServer(t)
	release := make(chan struct{})
	s.Register("stuck", func(*Ctx, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.CallContext(ctx, "stuck", nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline call took %v", elapsed)
	}
}

func TestDefaultTimeoutField(t *testing.T) {
	s, c := startServer(t)
	release := make(chan struct{})
	s.Register("stuck", func(*Ctx, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	c.Timeout = 40 * time.Millisecond
	if _, err := c.Call("stuck", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded via default Timeout", err)
	}
}

func TestLateReplyAfterTimeoutIsDropped(t *testing.T) {
	// A reply landing after its call timed out must not leak into the
	// next call's result.
	s, c := startServer(t)
	var slow atomic.Bool
	slow.Store(true)
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) {
		if slow.Swap(false) {
			time.Sleep(80 * time.Millisecond)
		}
		return p, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, "echo", []byte("first")); err == nil {
		t.Fatal("slow call did not time out")
	}
	out, err := c.Call("echo", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "second" {
		t.Errorf("crosstalk: got %q", out)
	}
}

// callRetrying is the retry a caller writes for a proc it knows is safe
// to repeat: a transport failure dropped the dead connection, so each
// attempt redials, until a reply, a remote error, ctx's end or
// MaxAttempts attempts.
func callRetrying(ctx context.Context, r *RedialClient, proc string, payload []byte) ([]byte, error) {
	var err error
	for range r.opts.MaxAttempts {
		var out []byte
		out, err = r.CallContext(ctx, proc, payload)
		var remote *RemoteError
		if err == nil || errors.As(err, &remote) || ctx.Err() != nil {
			return out, err
		}
	}
	return nil, err
}

func TestRedialReconnects(t *testing.T) {
	s, _, addr := startServerAddr(t)
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })

	var connects atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: time.Second,
		OnConnect: func(*Client) error {
			connects.Add(1)
			return nil
		},
	})
	defer r.Close()

	out, err := r.Call("echo", []byte("one"))
	if err != nil || string(out) != "one" {
		t.Fatalf("first call: %q, %v", out, err)
	}
	// Kill the live connection out from under the redialer.
	r.mu.Lock()
	r.cur.conn.Close()
	r.mu.Unlock()

	// A plain Call may lose the race with the dying read loop once;
	// the retry crosses the reconnect.
	out, err = callRetrying(context.Background(), r, "echo", []byte("two"))
	if err != nil || string(out) != "two" {
		t.Fatalf("post-kill call: %q, %v", out, err)
	}
	if got := connects.Load(); got != 2 {
		t.Errorf("OnConnect ran %d times, want 2", got)
	}
	if r.Redials() != 1 {
		t.Errorf("Redials = %d, want 1", r.Redials())
	}
}

// TestRedialRetriesPastAClosedInnerClient closes the inner client r
// hands the call before the call starts, as drop does when another
// caller's call fails on the same connection. That ErrClientClosed is
// the inner client's, not r's: the call redials and returns the reply.
func TestRedialRetriesPastAClosedInnerClient(t *testing.T) {
	s, _, addr := startServerAddr(t)
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	var connects atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: time.Second,
		OnConnect: func(c *Client) error {
			if connects.Add(1) == 1 {
				c.Close() // becomes r's current client, closed
			}
			return nil
		},
	})
	defer r.Close()
	out, err := callRetrying(context.Background(), r, "echo", []byte("x"))
	if err != nil || string(out) != "x" {
		t.Fatalf("call on a closed inner client: %q, %v; want a redial and the reply", out, err)
	}
	if got := connects.Load(); got != 2 {
		t.Errorf("OnConnect ran %d times, want 2", got)
	}
}

func TestRedialGivesUpAfterMaxAttempts(t *testing.T) {
	var attempts atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		attempts.Add(1)
		return nil, errors.New("network unplugged")
	}, RedialOptions{BaseBackoff: time.Microsecond, MaxAttempts: 3})
	defer r.Close()
	_, err := r.Call("any", nil)
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("err = %v, want give-up after 3 attempts", err)
	}
	if attempts.Load() != 3 {
		t.Errorf("dial attempts = %d, want 3", attempts.Load())
	}
}

func TestRedialDoesNotRetryNonIdempotent(t *testing.T) {
	// A transport failure must surface, not silently re-execute: the
	// call may have run on the server, so RedialClient never retries it.
	var dials atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		dials.Add(1)
		a, b := net.Pipe()
		// Server that answers one frame then dies.
		go func() {
			f, err := readFrame(b)
			if err == nil && dials.Load() > 1 {
				writeFrame(b, frame{kind: frameReply, id: f.id, payload: []byte("ok")})
			}
			b.Close()
		}()
		return a, nil
	}, RedialOptions{BaseBackoff: time.Microsecond, CallTimeout: time.Second})
	defer r.Close()
	_, err := r.CallContext(context.Background(), "mutate.state", nil)
	if err == nil {
		t.Fatal("non-idempotent call silently retried to success")
	}
}

func TestRedialOnConnectFailureRetries(t *testing.T) {
	s, _, addr := startServerAddr(t)
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	var tries atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, RedialOptions{
		BaseBackoff: time.Microsecond,
		OnConnect: func(c *Client) error {
			if tries.Add(1) < 3 {
				return errors.New("handshake flake")
			}
			return nil
		},
	})
	defer r.Close()
	if _, err := r.Call("echo", []byte("x")); err != nil {
		t.Fatalf("call after flaky handshakes: %v", err)
	}
	if tries.Load() != 3 {
		t.Errorf("OnConnect tries = %d, want 3", tries.Load())
	}
}

func TestServerIdleTimeoutReapsSession(t *testing.T) {
	s := NewServer()
	s.IdleTimeout = 30 * time.Millisecond
	disconnected := make(chan int64, 1)
	s.OnDisconnect = func(id int64) { disconnected <- id }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send nothing: the server must reap us.
	select {
	case id := <-disconnected:
		if id != 1 {
			t.Errorf("reaped session %d, want 1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle session never reaped")
	}
	if s.ReapedSessions() != 1 {
		t.Errorf("ReapedSessions = %d, want 1", s.ReapedSessions())
	}
}

func TestServerIdleTimeoutSparesActiveSession(t *testing.T) {
	s := NewServer()
	s.IdleTimeout = 60 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Keep calling more often than the idle timeout for several
	// periods: the deadline must keep sliding.
	for i := 0; i < 10; i++ {
		if _, err := c.Call("echo", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s.ReapedSessions() != 0 {
		t.Errorf("active session was reaped")
	}
}

func TestServerHandlerTimeout(t *testing.T) {
	s, c := startServer(t)
	s.HandlerTimeout = 30 * time.Millisecond
	release := make(chan struct{})
	s.Register("slow", func(*Ctx, []byte) ([]byte, error) {
		<-release
		return []byte("late"), nil
	})
	s.Register("fast", func(*Ctx, []byte) ([]byte, error) { return []byte("ok"), nil })

	_, err := c.Call("slow", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "timed out") {
		t.Fatalf("err = %v, want remote timeout", err)
	}
	// Let the straggler finish; dispatch must recover and serve again.
	close(release)
	out, err := c.Call("fast", nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("server wedged after handler timeout: %q, %v", out, err)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	_, c := startServer(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := c.Call("x", nil); !errors.Is(err, errClientClosed) {
		t.Errorf("call after close: %v", err)
	}
}
