// Package dlib reimplements the Distributed Library of §4
// (Gerald-Yamasaki, RNR-90-008): a remote-procedure-call system whose
// server process keeps persistent state across calls — "dlib more
// closely resembles the extension of the process environment to
// include the server process" — and which serves multiple clients by
// executing their calls serially "in a single process environment as
// though there were only one client." §4's remote memory segments are
// not reproduced: the windtunnel's frame protocol resends what it needs.
//
//vw:deterministic
//vw:wire
package dlib

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format (little-endian):
//
//	uint32  length of the rest of the frame
//	uint8   frame type
//	uint64  request id
//	call:   uint16 proc name length, proc name, payload
//	reply:  payload
//	error:  error string
const (
	frameCall  = 1
	frameReply = 2
	frameError = 3

	// maxFrame bounds a single call/reply. 100,000 points at 12 bytes
	// is 1.2 MB (Table 1's largest row); 64 MB leaves generous
	// headroom for full-timestep transfers.
	maxFrame = 64 << 20
)

type frame struct {
	kind    uint8
	id      uint64
	proc    string // calls only
	payload []byte // calls and replies; error text for errors
}

// writeFrame marshals and writes one frame. The caller serializes
// access to w.
func writeFrame(w io.Writer, f frame) error {
	procLen := 0
	if f.kind == frameCall {
		procLen = 2 + len(f.proc)
	}
	body := 1 + 8 + procLen + len(f.payload)
	if body > maxFrame {
		return fmt.Errorf("dlib: frame of %d bytes exceeds limit %d", body, maxFrame)
	}
	hdr := make([]byte, 0, 4+1+8+procLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(body))
	hdr = append(hdr, f.kind)
	hdr = binary.LittleEndian.AppendUint64(hdr, f.id)
	if f.kind == frameCall {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(f.proc)))
		hdr = append(hdr, f.proc...)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(f.payload) > 0 {
		if _, err := w.Write(f.payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	body := binary.LittleEndian.Uint32(lenBuf[:])
	if body < 9 || body > maxFrame {
		return frame{}, fmt.Errorf("dlib: bad frame length %d", body)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, fmt.Errorf("dlib: short frame: %w", err)
	}
	f := frame{kind: buf[0], id: binary.LittleEndian.Uint64(buf[1:9])}
	rest := buf[9:]
	switch f.kind {
	case frameCall:
		if len(rest) < 2 {
			return frame{}, fmt.Errorf("dlib: call frame missing proc name")
		}
		nameLen := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if nameLen > len(rest) {
			return frame{}, fmt.Errorf("dlib: proc name length %d exceeds frame", nameLen)
		}
		f.proc = string(rest[:nameLen])
		f.payload = rest[nameLen:]
	case frameReply, frameError:
		f.payload = rest
	default:
		return frame{}, fmt.Errorf("dlib: unknown frame type %d", f.kind)
	}
	return f, nil
}
