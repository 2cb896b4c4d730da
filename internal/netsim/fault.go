package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Fault injection: the paper's UltraNet delivered 1% of its rated
// bandwidth because of software bugs (§5.1); a distributed windtunnel
// has to assume the link will stall, reset, and partition underneath
// it. A FaultPlan scripts those failures deterministically — each
// fault fires when a wrapped connection's operation counter reaches a
// scheduled index, never on a wall-clock timer — so chaos tests
// reproduce bit-for-bit from a seed.

// FaultKind selects a failure mode.
type FaultKind uint8

// The fault kinds, which only tests' plans schedule.
//
//vw:testonly
const (
	// FaultStallRead blocks the triggering Read for Duration (or until
	// the connection closes when Duration is zero).
	FaultStallRead FaultKind = iota + 1
	// FaultStallWrite blocks the triggering Write the same way.
	FaultStallWrite
	// FaultReset closes the connection mid-operation; both sides see a
	// terminal error, as with a TCP RST.
	FaultReset
	// FaultTruncateWrite lets the first KeepBytes of the triggering
	// Write through, then resets the connection — a frame cut off on
	// the wire.
	FaultTruncateWrite
	// FaultDropRead starts a one-way partition: inbound bytes stop
	// arriving (reads block) while writes still flow.
	FaultDropRead
	// FaultDropWrite starts the opposite one-way partition: writes
	// claim success but vanish, while reads still flow.
	FaultDropWrite
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultStallRead:
		return "stall-read"
	case FaultStallWrite:
		return "stall-write"
	case FaultReset:
		return "reset"
	case FaultTruncateWrite:
		return "truncate-write"
	case FaultDropRead:
		return "drop-read"
	case FaultDropWrite:
		return "drop-write"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault is one scheduled failure. AtOp is a 1-based operation index in
// the fault's natural counter: read faults count Read calls, write
// faults count Write calls, and FaultReset counts both combined. Each
// fault fires at most once.
type Fault struct {
	Kind FaultKind
	AtOp int
	// Duration bounds a stall; zero stalls until the connection closes.
	Duration time.Duration
	// KeepBytes is how much of the triggering write FaultTruncateWrite
	// lets through.
	KeepBytes int
}

// errReset is the terminal error surfaced by FaultReset and
// FaultTruncateWrite, and by any operation after one fired.
var errReset = errors.New("netsim: connection reset by fault plan")

// errClosed is returned when a blocked operation is released by Close.
var errClosed = errors.New("netsim: connection closed during injected fault")

// FaultPlan is a deterministic schedule of failures for one
// connection. The zero value injects nothing.
type FaultPlan struct {
	Faults []Fault
	// Clock times stalls; nil uses the wall clock. Chaos tests inject a
	// ManualClock so stalls resolve without real sleeps.
	Clock Clock
}

// clock returns the effective clock.
func (p *FaultPlan) clock() Clock {
	if p == nil || p.Clock == nil {
		return RealClock
	}
	return p.Clock
}

// FiredFault records one fault that actually triggered, for
// determinism assertions.
//
//vw:testonly
type FiredFault struct {
	Kind FaultKind
	Op   int // value of the fault's counter when it fired
}

// FaultConn is a net.Conn executing a FaultPlan. It honors read/write
// deadlines even while a fault is blocking the operation, so deadline-
// based resilience (server idle reaping, client call timeouts) still
// observes stalled links.
type FaultConn struct {
	net.Conn
	plan *FaultPlan

	mu        sync.Mutex
	readOps   int
	writeOps  int
	totalOps  int
	consumed  []bool
	reset     bool
	dropRead  bool
	dropWrite bool
	closed    bool
	rdeadline time.Time
	wdeadline time.Time
	fired     []FiredFault

	done chan struct{}
}

// Wrap applies the plan to an established connection. A nil plan is a
// valid empty plan.
func (p *FaultPlan) Wrap(c net.Conn) *FaultConn {
	if p == nil {
		p = &FaultPlan{}
	}
	return &FaultConn{
		Conn:     c,
		plan:     p,
		consumed: make([]bool, len(p.Faults)),
		done:     make(chan struct{}),
	}
}

// FaultPipe returns an in-memory pair with the plan applied to the
// first end; the second end is the well-behaved peer.
//
//vw:testonly
func FaultPipe(p *FaultPlan) (*FaultConn, net.Conn) {
	a, b := net.Pipe()
	return p.Wrap(a), b
}

// Fired returns the faults that have triggered so far, in order.
//
//vw:testonly
func (c *FaultConn) Fired() []FiredFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]FiredFault(nil), c.fired...)
}

// next advances the counters for one operation of the given direction
// and returns the fault scheduled for it, if any.
func (c *FaultConn) next(isRead bool) (Fault, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totalOps++
	var dirOps int
	if isRead {
		c.readOps++
		dirOps = c.readOps
	} else {
		c.writeOps++
		dirOps = c.writeOps
	}
	for i, f := range c.plan.Faults {
		if c.consumed[i] {
			continue
		}
		readFault := f.Kind == FaultStallRead || f.Kind == FaultDropRead
		writeFault := f.Kind == FaultStallWrite || f.Kind == FaultDropWrite ||
			f.Kind == FaultTruncateWrite
		var hit bool
		switch {
		case f.Kind == FaultReset:
			hit = f.AtOp == c.totalOps
		case readFault:
			hit = isRead && f.AtOp == dirOps
		case writeFault:
			hit = !isRead && f.AtOp == dirOps
		}
		if hit {
			c.consumed[i] = true
			op := dirOps
			if f.Kind == FaultReset {
				op = c.totalOps
			}
			c.fired = append(c.fired, FiredFault{Kind: f.Kind, Op: op})
			return f, true
		}
	}
	return Fault{}, false
}

// block waits out a stall (d == 0 means until close), still honoring
// the operation deadline. Returns nil when the stall elapsed and the
// operation should proceed.
func (c *FaultConn) block(d time.Duration, deadline time.Time) error {
	var elapsed <-chan time.Time
	if d > 0 {
		elapsed = c.plan.clock().After(d)
	}
	var dl <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline) //vw:allow wallclock -- net.Conn deadlines are absolute wall-clock times
		if wait <= 0 {
			return os.ErrDeadlineExceeded
		}
		dl = time.After(wait) //vw:allow wallclock -- net.Conn deadlines are absolute wall-clock times
	}
	select {
	case <-elapsed:
		return nil
	case <-dl:
		return os.ErrDeadlineExceeded
	case <-c.done:
		return errClosed
	}
}

// doReset tears the connection down as a fault outcome.
func (c *FaultConn) doReset() {
	c.mu.Lock()
	c.reset = true
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if !closed {
		close(c.done)
		c.Conn.Close()
	}
}

// state snapshots the flags an operation needs.
func (c *FaultConn) state() (reset, dropRead, dropWrite bool, rdl, wdl time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reset, c.dropRead, c.dropWrite, c.rdeadline, c.wdeadline
}

// Read implements net.Conn.
func (c *FaultConn) Read(p []byte) (int, error) {
	f, hit := c.next(true)
	if hit {
		switch f.Kind {
		case FaultStallRead:
			if err := c.block(f.Duration, c.readDeadline()); err != nil {
				return 0, err
			}
		case FaultReset:
			c.doReset()
			return 0, errReset
		case FaultDropRead:
			c.mu.Lock()
			c.dropRead = true
			c.mu.Unlock()
		}
	}
	reset, dropRead, _, rdl, _ := c.state()
	if reset {
		return 0, errReset
	}
	if dropRead {
		// Partitioned inbound: bytes never arrive. Block until the
		// deadline or close, like a peer that went silent.
		if err := c.block(0, rdl); err != nil {
			return 0, err
		}
		return 0, errClosed
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *FaultConn) Write(p []byte) (int, error) {
	f, hit := c.next(false)
	if hit {
		switch f.Kind {
		case FaultStallWrite:
			if err := c.block(f.Duration, c.writeDeadline()); err != nil {
				return 0, err
			}
		case FaultReset:
			c.doReset()
			return 0, errReset
		case FaultTruncateWrite:
			keep := f.KeepBytes
			if keep > len(p) {
				keep = len(p)
			}
			n := 0
			if keep > 0 {
				n, _ = c.Conn.Write(p[:keep])
			}
			c.doReset()
			return n, errReset
		case FaultDropWrite:
			c.mu.Lock()
			c.dropWrite = true
			c.mu.Unlock()
		}
	}
	reset, _, dropWrite, _, _ := c.state()
	if reset {
		return 0, errReset
	}
	if dropWrite {
		// Partitioned outbound: the write "succeeds" but the bytes
		// vanish on the wire.
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *FaultConn) readDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rdeadline
}

func (c *FaultConn) writeDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wdeadline
}

// SetDeadline implements net.Conn.
func (c *FaultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline, c.wdeadline = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *FaultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *FaultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// Close implements net.Conn, releasing any operation blocked in a
// stall or partition.
func (c *FaultConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	return c.Conn.Close()
}

// Chaos builds a reproducible random plan: n faults drawn from seed,
// scheduled across the first span operations. kinds restricts the
// failure modes; empty means all of them. Two calls with equal
// arguments return identical plans.
//
//vw:testonly
func Chaos(seed int64, n, span int, kinds ...FaultKind) *FaultPlan {
	if len(kinds) == 0 {
		kinds = []FaultKind{
			FaultStallRead, FaultStallWrite, FaultReset,
			FaultTruncateWrite, FaultDropRead, FaultDropWrite,
		}
	}
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{}
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		f := Fault{Kind: k, AtOp: 1 + rng.Intn(span)}
		switch k {
		case FaultStallRead, FaultStallWrite:
			f.Duration = time.Duration(1+rng.Intn(50)) * time.Millisecond
		case FaultTruncateWrite:
			f.KeepBytes = rng.Intn(16)
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}
