package dlib

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Remote memory segments: "dlib is able to coordinate allocation and
// use of remote memory segments" (§4). Segments are server-global so
// one client can populate a dataset that every participant's calls
// then reference by handle. Every dlib.Server registers the
// procedures, but no windtunnel path calls them: the frame protocol
// resends what it needs. Offsets and lengths come off the wire, so a
// bounds check never adds them: off+n can wrap past 2^64.

type segmentTable struct {
	mu   sync.Mutex
	next uint64
	segs map[uint64][]byte
}

// Built-in procedure names.
const (
	ProcAlloc       = "dlib.alloc"
	ProcFree        = "dlib.free"
	ProcWrite       = "dlib.write"
	ProcRead        = "dlib.read"
	ProcSegmentStat = "dlib.stat"
)

// maxSegment bounds one allocation (matches the frame bound).
const maxSegment = maxFrame

func (s *Server) registerMemoryProcs() {
	s.Register(ProcAlloc, procAlloc)
	s.Register(ProcFree, procFree)
	s.Register(ProcWrite, procWrite)
	s.Register(ProcRead, procRead)
	s.Register(ProcSegmentStat, procStat)
}

// SegmentBytes returns the segment's backing store for server-side
// handlers (zero-copy access to staged data). Returns nil if the
// handle is unknown.
func (s *Server) SegmentBytes(handle uint64) []byte {
	s.segments.mu.Lock()
	defer s.segments.mu.Unlock()
	return s.segments.segs[handle]
}

// alloc payload: uint64 size -> reply: uint64 handle
func procAlloc(ctx *Ctx, payload []byte) ([]byte, error) {
	if len(payload) != 8 {
		return nil, fmt.Errorf("alloc: want 8-byte size, got %d", len(payload))
	}
	size := binary.LittleEndian.Uint64(payload)
	if size == 0 || size > maxSegment {
		return nil, fmt.Errorf("alloc: bad size %d", size)
	}
	t := &ctx.Server.segments
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.segs == nil {
		t.segs = make(map[uint64][]byte)
	}
	t.next++
	h := t.next
	t.segs[h] = make([]byte, size)
	return binary.LittleEndian.AppendUint64(nil, h), nil
}

// free payload: uint64 handle
func procFree(ctx *Ctx, payload []byte) ([]byte, error) {
	if len(payload) != 8 {
		return nil, fmt.Errorf("free: want 8-byte handle, got %d", len(payload))
	}
	h := binary.LittleEndian.Uint64(payload)
	t := &ctx.Server.segments
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.segs[h]; !ok {
		return nil, fmt.Errorf("free: unknown handle %d", h)
	}
	delete(t.segs, h)
	return nil, nil
}

// write payload: uint64 handle, uint64 offset, data
func procWrite(ctx *Ctx, payload []byte) ([]byte, error) {
	if len(payload) < 16 {
		return nil, fmt.Errorf("write: short payload %d", len(payload))
	}
	h := binary.LittleEndian.Uint64(payload)
	off := binary.LittleEndian.Uint64(payload[8:])
	data := payload[16:]
	t := &ctx.Server.segments
	t.mu.Lock()
	defer t.mu.Unlock()
	seg, ok := t.segs[h]
	if !ok {
		return nil, fmt.Errorf("write: unknown handle %d", h)
	}
	if off > uint64(len(seg)) || uint64(len(data)) > uint64(len(seg))-off {
		return nil, fmt.Errorf("write: %d bytes at %d exceed segment of %d bytes", len(data), off, len(seg))
	}
	copy(seg[off:], data)
	return nil, nil
}

// read payload: uint64 handle, uint64 offset, uint64 length -> data
func procRead(ctx *Ctx, payload []byte) ([]byte, error) {
	if len(payload) != 24 {
		return nil, fmt.Errorf("read: want 24-byte request, got %d", len(payload))
	}
	h := binary.LittleEndian.Uint64(payload)
	off := binary.LittleEndian.Uint64(payload[8:])
	n := binary.LittleEndian.Uint64(payload[16:])
	t := &ctx.Server.segments
	t.mu.Lock()
	defer t.mu.Unlock()
	seg, ok := t.segs[h]
	if !ok {
		return nil, fmt.Errorf("read: unknown handle %d", h)
	}
	if off > uint64(len(seg)) || n > uint64(len(seg))-off {
		return nil, fmt.Errorf("read: %d bytes at %d exceed segment of %d bytes", n, off, len(seg))
	}
	out := make([]byte, n)
	copy(out, seg[off:off+n])
	return out, nil
}

// stat payload: uint64 handle -> uint64 size
func procStat(ctx *Ctx, payload []byte) ([]byte, error) {
	if len(payload) != 8 {
		return nil, fmt.Errorf("stat: want 8-byte handle, got %d", len(payload))
	}
	h := binary.LittleEndian.Uint64(payload)
	t := &ctx.Server.segments
	t.mu.Lock()
	defer t.mu.Unlock()
	seg, ok := t.segs[h]
	if !ok {
		return nil, fmt.Errorf("stat: unknown handle %d", h)
	}
	return binary.LittleEndian.AppendUint64(nil, uint64(len(seg))), nil
}
