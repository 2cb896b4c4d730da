package dlib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCallReturnsStoredErrorOnConnectionLoss: a call whose connection
// dies under it returns the transport error the client records as its
// end, not a zero-frame decode or a generic abort.
func TestCallReturnsStoredErrorOnConnectionLoss(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	c := NewClient(clientEnd)
	defer c.Close()

	callErr := make(chan error, 1)
	go func() {
		_, err := c.Call("never.answered", nil)
		callErr <- err
	}()
	// Swallow the outgoing call frame, then kill the connection: the
	// call's read of its reply fails.
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
		c.mu.Lock()
		stored := c.err
		c.mu.Unlock()
		if stored == nil || err.Error() != stored.Error() {
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

// TestDefaultTimeoutField: RedialOptions.CallTimeout, the default
// deadline of a redialing client, bounds a call that carries none, and
// the connection that call ended is recorded as ended.
func TestDefaultTimeoutField(t *testing.T) {
	s, _, addr := startServerAddr(t)
	release := make(chan struct{})
	s.Register("stuck", func(*Ctx, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	r := NewRedialClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, RedialOptions{CallTimeout: 40 * time.Millisecond})
	defer r.Close()
	if _, err := r.Call("stuck", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded via CallTimeout", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		t.Error("the connection a deadline ended is still live")
	}
}

// TestLateReplyAfterTimeoutIsDropped: a call whose context ends fails
// its client, so the reply that lands later is never read — not by the
// next call, which fails with the same end — and a redialing client's
// next call answers on a fresh connection.
func TestLateReplyAfterTimeoutIsDropped(t *testing.T) {
	s, c, addr := startServerAddr(t)
	var slow atomic.Bool
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) {
		if slow.Swap(false) {
			time.Sleep(80 * time.Millisecond)
		}
		return p, nil
	})
	timedOut := func(call func(context.Context) ([]byte, error)) {
		t.Helper()
		slow.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if out, err := call(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("slow call = %q, %v; want DeadlineExceeded", out, err)
		}
	}

	timedOut(func(ctx context.Context) ([]byte, error) { return c.CallContext(ctx, "echo", []byte("first")) })
	if out, err := c.Call("echo", []byte("second")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("call after a timed-out call = %q, %v; want the client failed by that deadline", out, err)
	}

	r := NewRedialClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, RedialOptions{BaseBackoff: time.Millisecond, CallTimeout: time.Second})
	defer r.Close()
	if err := r.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	timedOut(func(ctx context.Context) ([]byte, error) { return r.CallContext(ctx, "echo", []byte("first")) })
	if out, err := r.Call("echo", []byte("second")); err != nil || string(out) != "second" {
		t.Fatalf("redial call after a timed-out call = %q, %v; want %q", out, err, "second")
	}
	if r.Redials() != 1 {
		t.Errorf("Redials = %d, want 1: the next call answers on a fresh connection", r.Redials())
	}
}

// TestRedialCallTimeoutBoundsHandshake: CallTimeout bounds the calls
// OnConnect makes, so a handshake stalled upstream fails the connect
// instead of wedging it.
func TestRedialCallTimeoutBoundsHandshake(t *testing.T) {
	s, _, addr := startServerAddr(t)
	release := make(chan struct{})
	s.Register("hello", func(*Ctx, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	r := NewRedialClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, RedialOptions{
		MaxAttempts: 1,
		CallTimeout: 40 * time.Millisecond,
		OnConnect: func(call func(string, []byte) ([]byte, error)) error {
			_, err := call("hello", nil)
			return err
		},
	})
	defer r.Close()
	done := make(chan error, 1)
	go func() { done <- r.Connect(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("connect = %v, want the handshake's DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a stalled handshake wedged the connect")
	}
}

// TestClientStartsNoGoroutine is a census: clients that made calls hold
// no goroutine of their own, open or closed — a call runs on its
// caller's goroutine, and so does a redialing client's redial.
func TestClientStartsNoGoroutine(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	clientGoroutines := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return bytes.Count(buf, []byte("dlib.(*Client)."))
	}
	pipe := func() (net.Conn, error) {
		a, b := net.Pipe()
		go s.ServeConn(b)
		return a, nil
	}
	echo := func(c *Client) {
		t.Helper()
		if out, err := c.Call("echo", []byte("x")); err != nil || string(out) != "x" {
			t.Fatalf("echo = %q, %v", out, err)
		}
	}
	const n = 8
	var clients []*Client
	for range n {
		a, _ := pipe()
		c := NewClient(a)
		clients = append(clients, c)
		echo(c)
		// A redialing client that lost its first connection and redialed.
		r := NewRedialClient(pipe, RedialOptions{BaseBackoff: time.Millisecond})
		clients = append(clients, r)
		echo(r)
		r.mu.Lock()
		r.conn.Close()
		r.mu.Unlock()
		r.Call("echo", nil) // fails on the closed connection
		echo(r)
		if r.Redials() != 1 {
			t.Fatalf("Redials = %d, want 1", r.Redials())
		}
	}
	if got := clientGoroutines(); got != 0 {
		t.Errorf("%d open clients run %d client frames on goroutines between calls, want 0", len(clients), got)
	}
	for _, c := range clients {
		c.Close()
	}
	if got := clientGoroutines(); got != 0 {
		t.Errorf("%d closed clients left %d client frames on goroutines, want 0", len(clients), got)
	}
}

// TestRedialOncePerOutage: goroutines that call at once on a redialing
// client whose connection was killed share one reconnect. Each call is
// answered but the one that found the connection dead, which fails in
// transport; the dial and OnConnect run once, and Redials is 1.
func TestRedialOncePerOutage(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	var dials, connects atomic.Int64
	r := NewRedialClient(func() (net.Conn, error) {
		dials.Add(1)
		a, b := net.Pipe()
		go s.ServeConn(b)
		return a, nil
	}, RedialOptions{
		BaseBackoff: time.Millisecond,
		CallTimeout: 5 * time.Second,
		OnConnect: func(call func(string, []byte) ([]byte, error)) error {
			connects.Add(1)
			_, err := call("echo", []byte("hello"))
			return err
		},
	})
	defer r.Close()
	if err := r.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	dials.Store(0)
	connects.Store(0)
	r.mu.Lock()
	r.conn.Close()
	r.mu.Unlock()

	const callers = 16
	var failed atomic.Int64
	errs := make(chan error, callers)
	var start sync.WaitGroup
	start.Add(1)
	for i := range callers {
		go func() {
			start.Wait()
			want := []byte{byte(i)}
			out, err := r.Call("echo", want)
			var remote *RemoteError
			switch {
			case errors.As(err, &remote):
				err = fmt.Errorf("call %d: remote error %v, want a reply or a transport error", i, err)
			case err == nil && !bytes.Equal(out, want):
				err = fmt.Errorf("call %d: reply %v, want %v", i, out, want)
			case err != nil:
				failed.Add(1)
				err = nil
			}
			errs <- err
		}()
	}
	start.Done()
	for range callers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := failed.Load(); got != 1 {
		t.Errorf("%d calls failed in transport, want 1: the one that found the connection dead", got)
	}
	if d, c := dials.Load(), connects.Load(); d != 1 || c != 1 {
		t.Errorf("%d callers across one outage: %d dials, %d OnConnect runs; want 1 and 1", callers, d, c)
	}
	if got := r.Redials(); got != 1 {
		t.Errorf("Redials = %d, want 1", got)
	}
}

// callRetrying is the retry a caller writes for a proc it knows is safe
// to repeat: a transport failure dropped the dead connection, so each
// attempt redials, until a reply, a remote error, ctx's end or
// MaxAttempts attempts.
func callRetrying(ctx context.Context, r *Client, proc string, payload []byte) ([]byte, error) {
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
		OnConnect: func(func(string, []byte) ([]byte, error)) error {
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
	r.conn.Close()
	r.mu.Unlock()

	// The first call finds the connection dead and drops it; the retry
	// crosses the reconnect.
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
	// call may have run on the server, so a redialing client never
	// retries it.
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
		OnConnect: func(func(string, []byte) ([]byte, error)) error {
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
	s.OnDisconnect = func(sess *Session) { disconnected <- sess.ID }

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
