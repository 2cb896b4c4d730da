package dlib

import (
	"bytes"
	"encoding/binary"
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

// segRequest lays out a memory procedure payload: little-endian
// uint64 words, then data.
func segRequest(data []byte, words ...uint64) []byte {
	var p []byte
	for _, w := range words {
		p = binary.LittleEndian.AppendUint64(p, w)
	}
	return append(p, data...)
}

// FuzzSegmentProcs calls the memory procedures directly, outside
// safeCall's recover, so a panic fails the target as surely as an
// absurd allocation does: every handle, offset and length comes off
// the wire. Each input runs on a fresh server holding one 64-byte
// segment at handle 1 whose byte i is i; a read that succeeds returns
// exactly the bytes asked for, a write that succeeds lands exactly
// where it was aimed.
func FuzzSegmentProcs(f *testing.F) {
	const size = 64
	procs := []Handler{procAlloc, procFree, procWrite, procRead, procStat}
	f.Add(uint8(3), segRequest(nil, 1, 8, 5))
	f.Add(uint8(2), segRequest([]byte("hello"), 1, size-5))
	f.Add(uint8(3), segRequest(nil, 1, 1<<64-1<<36, 1<<36)) // off+n wraps to 0
	f.Add(uint8(2), segRequest([]byte("ab"), 1, 1<<64-1))   // off+len wraps to 1
	f.Add(uint8(0), segRequest(nil, maxSegment+1))
	f.Add(uint8(1), segRequest(nil, 2))
	f.Add(uint8(4), segRequest(nil, 1))
	f.Fuzz(func(t *testing.T, proc uint8, payload []byte) {
		ctx := &Ctx{Server: NewServer()}
		if _, err := procAlloc(ctx, segRequest(nil, size)); err != nil {
			t.Fatal(err)
		}
		seg := ctx.Server.SegmentBytes(1)
		for i := range seg {
			seg[i] = byte(i)
		}
		p := int(proc) % len(procs)
		out, err := procs[p](ctx, payload)
		if err != nil {
			return
		}
		switch p {
		case 2: // procWrite
			off, data := binary.LittleEndian.Uint64(payload[8:]), payload[16:]
			if !bytes.Equal(seg[off:off+uint64(len(data))], data) {
				t.Fatalf("write at %d did not land", off)
			}
		case 3: // procRead
			off, n := binary.LittleEndian.Uint64(payload[8:]), binary.LittleEndian.Uint64(payload[16:])
			if !bytes.Equal(out, seg[off:off+n]) {
				t.Fatalf("read of %d at %d returned %d other bytes", n, off, len(out))
			}
		}
	})
}
