package dlib

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzReadFrame hardens the wire framing against malformed peers: a
// corrupt frame must produce an error, never a panic or an absurd
// allocation.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, frame{kind: frameCall, id: 7, proc: "vw.frame", payload: []byte("data")})
	f.Add(good.Bytes())
	var reply bytes.Buffer
	writeFrame(&reply, frame{kind: frameReply, id: 9, payload: []byte("ok")})
	f.Add(reply.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that parsed must round-trip.
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatalf("reencode failed: %v", err)
		}
		back, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if back.kind != fr.kind || back.id != fr.id || back.proc != fr.proc ||
			!bytes.Equal(back.payload, fr.payload) {
			t.Fatal("frame round trip mismatch")
		}
	})
}

// FuzzClientRead drives arbitrary bytes — truncated frames, oversized
// length prefixes, garbage — into a live client's read path, then hangs
// up. The bytes alone decide the call, promptly: a well-formed reply or
// error frame for request 1 answers it, and anything else, a reply for
// another id included, fails it with no hang, no panic and no unbounded
// allocation.
func FuzzClientRead(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, frame{kind: frameReply, id: 1, payload: []byte("ok")})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:5])                                                   // truncated mid-header
	f.Add(good.Bytes()[:len(good.Bytes())-1])                                 // truncated mid-payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 2, 0, 0})                            // oversized length prefix
	f.Add([]byte{13, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 'b', 'o', 'o', 'm'}) // error frame
	f.Add([]byte{})
	var other bytes.Buffer
	writeFrame(&other, frame{kind: frameReply, id: 2, payload: []byte("ok")})
	f.Add(other.Bytes()) // a reply to no call in flight
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		c := NewClient(a)
		defer c.Close()
		go func() {
			// Swallow the outgoing call, then impersonate the server
			// with the fuzzed bytes and hang up.
			readFrame(b)
			b.SetWriteDeadline(time.Now().Add(time.Second))
			b.Write(data)
			b.Close()
		}()
		type result struct {
			out []byte
			err error
		}
		done := make(chan result, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := c.CallContext(ctx, "probe", []byte("x"))
			done <- result{out, err}
		}()
		var got result
		select {
		case got = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("client call hung on fuzzed reply bytes")
		}
		var remote *RemoteError
		isRemote := errors.As(got.err, &remote)
		switch want, err := readFrame(bytes.NewReader(data)); {
		case errors.Is(got.err, context.DeadlineExceeded):
			t.Fatalf("the deadline, not the bytes, ended the call: %v", got.err)
		case err == nil && want.id == 1 && want.kind == frameReply:
			if got.err != nil || !bytes.Equal(got.out, want.payload) {
				t.Fatalf("reply for the call: got %q, %v; want %q", got.out, got.err, want.payload)
			}
		case err == nil && want.id == 1 && want.kind == frameError:
			if !isRemote || remote.Msg != string(want.payload) {
				t.Fatalf("error frame for the call: got %v, want remote %q", got.err, want.payload)
			}
		case got.err == nil || isRemote:
			t.Fatalf("bytes that answer no call returned %q, %v", got.out, got.err)
		case err == nil && errors.Is(got.err, io.EOF):
			// A whole frame that answers nothing is refused as read,
			// not discarded until the hangup.
			t.Fatalf("a frame for id %d (kind %d) was waited past: %v", want.id, want.kind, got.err)
		}
	})
}
