// Package wallclock is the fixture for the wallclock analyzer: the
// package opts in via the directive below, so package-level time and
// global math/rand calls are flagged while injected clocks, seeded
// RNGs, and pure time.Time arithmetic stay legal.
//
//vw:deterministic
package wallclock

import (
	"math/rand"
	"time"
)

type clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
	Sleep(d time.Duration)
}

// RealClock models netsim.RealClock: a package-level var whose methods
// read the wall clock. Calling through it dodges injection, so the
// analyzer flags it even though Now/After are method calls here.
var RealClock clock

func bad() {
	_ = time.Now()                     // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond)       // want `time\.Sleep reads the wall clock`
	_ = time.After(time.Second)        // want `time\.After reads the wall clock`
	_ = time.NewTicker(time.Second)    // want `time\.NewTicker reads the wall clock`
	_ = time.Tick(time.Second)         // want `time\.Tick reads the wall clock`
	_ = time.NewTimer(time.Second)     // want `time\.NewTimer reads the wall clock`
	_ = time.AfterFunc(time.Second, func() {}) // want `time\.AfterFunc reads the wall clock`
	_ = time.Since(time.Time{})        // want `time\.Since reads the wall clock`
	_ = time.Until(time.Time{})        // want `time\.Until reads the wall clock`
	_ = rand.Intn(10)                  // want `global rand\.Intn is nondeterministic`
	_ = rand.Float64()                 // want `global rand\.Float64 is nondeterministic`
	rand.Shuffle(3, func(i, j int) {}) // want `global rand\.Shuffle is nondeterministic`
	_ = RealClock.Now()                // want `Now on RealClock bypasses clock injection`
	_ = RealClock.After(time.Second)   // want `After on RealClock bypasses clock injection`
	RealClock.Sleep(time.Millisecond)  // want `Sleep on RealClock bypasses clock injection`
}

func good(c clock, r *rand.Rand) {
	_ = c.Now()                      // injected clock
	_ = c.After(time.Second)         // injected clock
	c.Sleep(time.Millisecond)        // injected clock
	_ = r.Intn(10)                   // seeded source
	_ = rand.New(rand.NewSource(42)) // constructing a seeded source is fine
	t0 := time.Unix(0, 0)            // pure constructor
	_ = t0.Add(time.Second).Sub(t0)  // pure arithmetic
	_ = time.Duration(3) * time.Hour // conversion

	// A local or field that happens to be named RealClock is an
	// injection point (the caller chose what to pass), not the global.
	var RealClock clock = c
	_ = RealClock.Now()
	s := struct{ RealClock clock }{RealClock: c}
	_ = s.RealClock.Now()
}

// encodeTimer reads the v1 encode timer off the wall clock. Only this
// analyzer catches it: EncodeTime never reaches the wire, so no golden
// frame moves (the compute and load timers do, and the corpus pins
// those).
func encodeTimer(c clock, total *time.Duration) {
	start := c.Now()
	*total += time.Since(start) // want `time\.Since reads the wall clock`
	*total += c.Now().Sub(start)
}

func allowed() {
	_ = time.Now() //vw:allow wallclock -- fixture: obs-only timing
	//vw:allow wallclock -- fixture: the line-above form
	time.Sleep(time.Millisecond)
}
