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

// Conn is a net.Conn with pacing and metering. Reads pass through
// untouched (the peer's writes are already paced); writes sleep enough
// that the cumulative rate never exceeds the link bandwidth.
type Conn struct {
	net.Conn
	link Link

	mu      sync.Mutex
	debt    time.Duration // accumulated pacing debt not yet slept
	lastTxn time.Time

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// Wrap wraps c with the link's behavior.
func (l Link) Wrap(c net.Conn) *Conn {
	return &Conn{Conn: c, link: l}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytesRead.Add(int64(n))
	return n, err
}

// Write implements net.Conn with pacing: after the underlying write,
// sleep so the long-run rate matches the configured bandwidth.
func (c *Conn) Write(p []byte) (int, error) {
	if c.link.Latency > 0 {
		time.Sleep(c.link.Latency) //vw:allow wallclock -- link pacing burns real time by design
	}
	n, err := c.Conn.Write(p)
	c.bytesWritten.Add(int64(n))
	if bw := c.link.BandwidthBytesPerSec; bw > 0 && n > 0 {
		cost := time.Duration(float64(n) / float64(bw) * float64(time.Second))
		c.mu.Lock()
		now := time.Now() //vw:allow wallclock -- bandwidth debt is paid in real time by design
		if !c.lastTxn.IsZero() {
			// Credit real time that passed since the last write.
			c.debt -= now.Sub(c.lastTxn)
			if c.debt < 0 {
				c.debt = 0
			}
		}
		c.debt += cost
		sleep := c.debt
		c.lastTxn = now.Add(sleep)
		c.mu.Unlock()
		if sleep > 0 {
			time.Sleep(sleep) //vw:allow wallclock -- bandwidth debt is paid in real time by design
			c.mu.Lock()
			c.debt -= sleep
			if c.debt < 0 {
				c.debt = 0
			}
			c.mu.Unlock()
		}
	}
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
