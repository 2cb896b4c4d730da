package netsim

import (
	"sync"
	"time"
)

// Clock abstracts time for fault injection and call timing so chaos
// tests can run scheduled stalls — and deterministic components can
// measure durations — without wall-clock reads. The zero plan uses
// the real clock; tests inject a ManualClock and advance it
// explicitly.
type Clock interface {
	// After returns a channel that delivers once d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Now returns the current time. Implementations need only promise
	// that differences between successive Nows measure elapsed (real
	// or virtual) time; the absolute value carries no meaning.
	Now() time.Time
}

// realClock delegates to the time package.
type realClock struct{}

// After implements Clock.
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) } //vw:allow wallclock -- this IS the injected wall clock

// Now implements Clock.
func (realClock) Now() time.Time { return time.Now() } //vw:allow wallclock -- this IS the injected wall clock

// RealClock is the wall clock.
var RealClock Clock = realClock{}

// ManualClock is a deterministic clock: time only moves when Advance
// is called. Safe for concurrent use.
//
//vw:testonly
type ManualClock struct {
	mu      sync.Mutex
	now     time.Duration // elapsed virtual time since construction
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Duration
	ch       chan time.Time
}

// NewManualClock returns a clock frozen at virtual time zero.
//
//vw:testonly
func NewManualClock() *ManualClock { return &ManualClock{} }

// After implements Clock: the returned channel fires when Advance has
// moved virtual time past d from now.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- time.Time{}
		return ch
	}
	c.waiters = append(c.waiters, &manualWaiter{deadline: c.now + d, ch: ch})
	return ch
}

// Now implements Clock: the zero time plus the advanced virtual
// elapsed time, so durations between Nows match Advance calls.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Time{}.Add(c.now)
}

// Advance moves virtual time forward, firing every waiter whose
// deadline has passed.
//
//vw:testonly
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.deadline <= c.now {
			w.ch <- time.Time{}
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// Waiters returns how many After channels are pending — tests spin on
// this to know a stalled operation has parked before advancing time.
//
//vw:testonly
func (c *ManualClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
