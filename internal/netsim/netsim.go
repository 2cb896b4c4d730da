// Package netsim wraps net.Conn with bandwidth pacing, latency
// injection, and byte metering. The paper's UltraNet was rated at
// 100 MB/s, delivered 13 MB/s through the VME interface, and actually
// achieved 1 MB/s at the time of writing; reproducing Table 1 requires
// running the same transfers through links with those budgets.
//
//vw:deterministic
package netsim

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known link budgets from §5.1 of the paper, in bytes/second.
const (
	// UltraNetRated is the network's 100 megabyte/s rating.
	//
	//vw:testonly
	UltraNetRated int64 = 100 << 20
	// UltraNetVME is the 13 MB/s delivered through the workstation's
	// VME interface.
	UltraNetVME int64 = 13 << 20
	// UltraNetActual is the 1 MB/s achieved "as of this writing" due
	// to software bugs and the missing Convex HIPPI interface.
	//
	//vw:testonly
	UltraNetActual int64 = 1 << 20
)

// Link describes a simulated network link.
type Link struct {
	// BandwidthBytesPerSec paces writes; zero means unlimited.
	BandwidthBytesPerSec int64
	// Latency is added once per Write call, approximating per-message
	// propagation delay.
	Latency time.Duration
}

// Pacer paces the transfers through one device — a link, a disk — so
// that their cumulative rate never exceeds its bandwidth, however many
// callers share it: the device moves one transfer at a time, each for
// its size over the bandwidth, and idle time earns no burst. A nil
// Pacer is an unlimited device and never waits.
type Pacer struct {
	bytesPerSec int64

	mu   sync.Mutex
	busy time.Time // when the device finishes the transfers booked so far
}

// NewPacer returns a pacer for a device moving bytesPerSec bytes a
// second, or nil (unlimited) when bytesPerSec is not positive.
func NewPacer(bytesPerSec int64) *Pacer {
	if bytesPerSec <= 0 {
		return nil
	}
	return &Pacer{bytesPerSec: bytesPerSec}
}

// Pay books an n-byte transfer that started at start and sleeps until
// the device has delivered it: from start, or from the end of the
// transfers booked before it if that is later, n over the bandwidth.
func (p *Pacer) Pay(start time.Time, n int64) {
	if p == nil || n <= 0 {
		return
	}
	cost := time.Duration(float64(n) / float64(p.bytesPerSec) * float64(time.Second))
	p.mu.Lock()
	if p.busy.Before(start) {
		p.busy = start
	}
	p.busy = p.busy.Add(cost)
	done := p.busy
	p.mu.Unlock()
	time.Sleep(time.Until(done)) //vw:allow wallclock -- pacing burns real time by design
}

// Conn is a net.Conn with pacing and metering. Reads pass through
// untouched (the peer's writes are already paced); writes sleep enough
// that the cumulative rate never exceeds the link bandwidth.
type Conn struct {
	net.Conn
	link Link
	pace *Pacer

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// Wrap wraps c with the link's behavior.
func (l Link) Wrap(c net.Conn) *Conn {
	return &Conn{Conn: c, link: l, pace: NewPacer(l.BandwidthBytesPerSec)}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytesRead.Add(int64(n))
	return n, err
}

// Write implements net.Conn with pacing: the write returns once the
// link has carried its bytes at the configured bandwidth.
func (c *Conn) Write(p []byte) (int, error) {
	if c.link.Latency > 0 {
		time.Sleep(c.link.Latency) //vw:allow wallclock -- link pacing burns real time by design
	}
	start := time.Now() //vw:allow wallclock -- link pacing burns real time by design
	n, err := c.Conn.Write(p)
	c.bytesWritten.Add(int64(n))
	c.pace.Pay(start, int64(n))
	return n, err
}

// Stats returns cumulative bytes read and written through this side of
// the link.
func (c *Conn) Stats() (bytesRead, bytesWritten int64) {
	return c.bytesRead.Load(), c.bytesWritten.Load()
}

// Pipe returns an in-memory connected pair, both ends wrapped with the
// link. Useful for deterministic tests without sockets.
func Pipe(l Link) (*Conn, *Conn) {
	a, b := net.Pipe()
	return l.Wrap(a), l.Wrap(b)
}
