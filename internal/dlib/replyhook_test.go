package dlib

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplyDoneHookFiresAfterWrite pins the zero-copy reply contract:
// a handler that registers ReplyDone gets exactly one callback per
// call, after the reply has shipped, and the bytes the client receives
// are the handler's.
func TestReplyDoneHookFiresAfterWrite(t *testing.T) {
	srv := NewServer()
	buf := []byte("shared-round-buffer")
	var released atomic.Int64
	srv.Register("frame", func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.ReplyDone(func() { released.Add(1) })
		return buf, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 3; i++ {
		out, err := c.Call("frame", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(buf) {
			t.Fatalf("reply = %q", out)
		}
		// The hook fires on the connection goroutine right after the
		// write; the client has the bytes, so it has already run (or is
		// about to) — poll briefly.
		deadline := time.Now().Add(time.Second)
		for released.Load() != int64(i) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := released.Load(); got != int64(i) {
			t.Fatalf("after call %d: %d releases", i, got)
		}
	}
}

// TestReplyDoneHookSettledOnError pins that a hook registered before a
// handler error is still settled exactly once — the buffer must not
// leak a reference just because the call failed.
func TestReplyDoneHookSettledOnError(t *testing.T) {
	srv := NewServer()
	var released atomic.Int64
	srv.Register("fail", func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.ReplyDone(func() { released.Add(1) })
		return nil, errors.New("boom")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("fail", nil); err == nil {
		t.Fatal("error swallowed")
	}
	if got := released.Load(); got != 1 {
		t.Fatalf("releases = %d, want 1", got)
	}
}

// TestReplyDoneHookSettledOnTimeout pins the straggler path: a handler
// that outlives HandlerTimeout has its hook settled when it finally
// returns, and the hook does not bleed into the next call.
func TestReplyDoneHookSettledOnTimeout(t *testing.T) {
	srv := NewServer()
	srv.HandlerTimeout = 20 * time.Millisecond
	var released atomic.Int64
	block := make(chan struct{})
	srv.Register("slow", func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.ReplyDone(func() { released.Add(1) })
		<-block
		return []byte("late"), nil
	})
	srv.Register("fast", func(ctx *Ctx, _ []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("slow", nil); err == nil {
		t.Fatal("timeout not reported")
	}
	if got := released.Load(); got != 0 {
		t.Fatalf("hook fired before straggler finished: %d", got)
	}
	close(block)
	// The straggler settles the hook and frees dispatch; the next call
	// proves dispatch is healthy and carries no stale hook.
	if out, err := c.Call("fast", nil); err != nil || string(out) != "ok" {
		t.Fatalf("post-straggler call: %q, %v", out, err)
	}
	deadline := time.Now().Add(time.Second)
	for released.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := released.Load(); got != 1 {
		t.Fatalf("straggler releases = %d, want 1", got)
	}
}
