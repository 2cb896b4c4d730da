package dlib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startServer launches a server on loopback TCP and returns it with a
// connected client. Cleanup tears both down.
func startServer(t *testing.T) (*Server, *Client) {
	s, c, _ := startServerAddr(t)
	return s, c
}

func startServerAddr(t *testing.T) (*Server, *Client, string) {
	t.Helper()
	s := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	addr := ln.Addr().String()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c, addr
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{kind: frameCall, id: 42, proc: "echo", payload: []byte("payload")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != in.kind || out.id != in.id || out.proc != in.proc || !bytes.Equal(out.payload, in.payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // absurd length
		{3, 0, 0, 0, 1, 2, 3},                // length < minimum
	}
	for i, c := range cases {
		if _, err := readFrame(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBasicCall(t *testing.T) {
	s, c := startServer(t)
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) {
		return p, nil
	})
	out, err := c.Call("echo", []byte("windtunnel"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "windtunnel" {
		t.Errorf("echo = %q", out)
	}
	if s.CallCount() != 1 {
		t.Errorf("CallCount = %d", s.CallCount())
	}
}

func TestUnknownProc(t *testing.T) {
	_, c := startServer(t)
	_, err := c.Call("no.such.proc", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestHandlerError(t *testing.T) {
	s, c := startServer(t)
	s.Register("fail", func(*Ctx, []byte) ([]byte, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	_, err := c.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "deliberate failure" {
		t.Fatalf("err = %v", err)
	}
}

func TestHandlerPanicIsContained(t *testing.T) {
	s, c := startServer(t)
	s.Register("boom", func(*Ctx, []byte) ([]byte, error) {
		panic("kaboom")
	})
	if _, err := c.Call("boom", nil); err == nil {
		t.Fatal("panic handler returned success")
	}
	// The server must still be alive.
	s.Register("ok", func(*Ctx, []byte) ([]byte, error) { return []byte("y"), nil })
	out, err := c.Call("ok", nil)
	if err != nil || string(out) != "y" {
		t.Fatalf("server dead after panic: %v %q", err, out)
	}
}

func TestSerialDispatchOrder(t *testing.T) {
	// Calls from multiple clients execute one at a time: a slow call
	// must fully finish before the next begins.
	s, c1, addr := startServerAddr(t)
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	var mu sync.Mutex
	var active, maxActive int
	handler := func(*Ctx, []byte) ([]byte, error) {
		mu.Lock()
		active++
		if active > maxActive {
			maxActive = active
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return nil, nil
	}
	s.Register("slow", handler)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, c := range []*Client{c1, c2} {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if _, err := c.Call("slow", nil); err != nil {
					t.Error(err)
				}
			}(c)
		}
	}
	wg.Wait()
	if maxActive != 1 {
		t.Errorf("max concurrent handlers = %d, want 1 (serial dispatch)", maxActive)
	}
}

func TestConcurrentCallsOneClient(t *testing.T) {
	s, c := startServer(t)
	s.Register("double", func(_ *Ctx, p []byte) ([]byte, error) {
		v := binary.LittleEndian.Uint64(p)
		return binary.LittleEndian.AppendUint64(nil, v*2), nil
	})
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			out, err := c.Call("double", binary.LittleEndian.AppendUint64(nil, i))
			if err != nil {
				t.Error(err)
				return
			}
			if got := binary.LittleEndian.Uint64(out); got != 2*i {
				t.Errorf("double(%d) = %d", i, got)
			}
		}(uint64(i))
	}
	wg.Wait()
}

func TestClientFailsAfterServerGone(t *testing.T) {
	s, c := startServer(t)
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	c.conn.Close()
	if _, err := c.Call("echo", nil); err == nil {
		t.Error("call succeeded after connection closed")
	}
}

func TestNumSessions(t *testing.T) {
	s, _, addr := startServerAddr(t)
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Sessions are registered on the server goroutine; poll briefly.
	deadline := time.Now().Add(time.Second)
	for s.NumSessions() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.NumSessions(); got != 2 {
		t.Fatalf("NumSessions = %d, want 2", got)
	}
	c2.Close()
	for s.NumSessions() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.NumSessions(); got != 1 {
		t.Errorf("NumSessions after close = %d, want 1", got)
	}
}

// TestSessionStateReachesOnDisconnect: the record a handler keeps in
// Session.State is the one OnDisconnect receives, Sessions lists the
// live sessions in ID order, and a closed one leaves the list.
func TestSessionStateReachesOnDisconnect(t *testing.T) {
	s, c1, addr := startServerAddr(t)
	s.Register("keep", func(ctx *Ctx, p []byte) ([]byte, error) {
		ctx.Session.State = string(p)
		return nil, nil
	})
	gone := make(chan *Session, 1)
	s.OnDisconnect = func(sess *Session) { gone <- sess }
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Call("keep", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Call("keep", []byte("second")); err != nil {
		t.Fatal(err)
	}
	live := s.Sessions()
	if len(live) != 2 || live[0].ID != 1 || live[1].ID != 2 {
		t.Fatalf("Sessions = %v, want IDs 1 and 2 in order", live)
	}
	c2.Close()
	select {
	case sess := <-gone:
		if sess != live[1] || sess.State != "second" {
			t.Errorf("OnDisconnect got session %d with State %v, want session 2 with %q", sess.ID, sess.State, "second")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect never ran")
	}
	if live := s.Sessions(); len(live) != 1 || live[0].ID != 1 {
		t.Errorf("Sessions after close = %v, want session 1 alone", live)
	}
}

func BenchmarkCallSmall(b *testing.B) {
	s := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	s.Register("echo", func(_ *Ctx, p []byte) ([]byte, error) { return p, nil })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCall120KB(b *testing.B) {
	// Table 1's 10,000-particle row: 120,000 bytes per frame.
	s := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	payload := make([]byte, 120000)
	s.Register("points", func(*Ctx, []byte) ([]byte, error) { return payload, nil })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.SetBytes(120000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("points", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProcStats(t *testing.T) {
	s, c := startServer(t)
	s.Register("work", func(_ *Ctx, p []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return append(p, p...), nil
	})
	s.Register("fail", func(*Ctx, []byte) ([]byte, error) {
		return nil, errors.New("nope")
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Call("work", []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	c.Call("fail", nil)
	stats := s.ProcStats()
	w := stats["work"]
	if w.Calls != 3 || w.Errors != 0 {
		t.Errorf("work stats %+v", w)
	}
	if w.BytesIn != 12 || w.BytesOut != 24 {
		t.Errorf("work bytes in=%d out=%d", w.BytesIn, w.BytesOut)
	}
	if w.Mean() < time.Millisecond || w.MaxService < w.Mean() {
		t.Errorf("work timing mean=%v max=%v", w.Mean(), w.MaxService)
	}
	f := stats["fail"]
	if f.Calls != 1 || f.Errors != 1 {
		t.Errorf("fail stats %+v", f)
	}
	names := s.ProcNames()
	if len(names) < 2 || names[0] != "work" {
		t.Errorf("ProcNames = %v, want work first (busiest)", names)
	}
}
