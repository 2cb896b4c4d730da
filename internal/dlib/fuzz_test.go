package dlib

import (
	"bytes"
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
// length prefixes, garbage — into a live client's deadline-aware read
// path. Whatever the "server" sends, a Call with a timeout must return
// promptly: no hang, no panic, no unbounded allocation.
func FuzzClientRead(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, frame{kind: frameReply, id: 1, payload: []byte("ok")})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:5])                                                   // truncated mid-header
	f.Add(good.Bytes()[:len(good.Bytes())-1])                                 // truncated mid-payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 2, 0, 0})                            // oversized length prefix
	f.Add([]byte{13, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 'b', 'o', 'o', 'm'}) // error frame
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		c := NewClient(a)
		c.Timeout = 200 * time.Millisecond
		defer c.Close()
		go func() {
			// Swallow the outgoing call, then impersonate the server
			// with the fuzzed bytes and hang up.
			readFrame(b)
			b.SetWriteDeadline(time.Now().Add(time.Second))
			b.Write(data)
			b.Close()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Any outcome is fine — a valid reply for id 1 succeeds,
			// everything else errors — as long as it returns.
			c.Call("probe", []byte("x"))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("client call hung on fuzzed reply bytes")
		}
	})
}
