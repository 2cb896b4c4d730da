package main

import (
	"sync"
	"time"
)

// The host meter. The box this benchmark is sized for is a small shared
// guest whose cores slow down by up to half for anything from a few
// milliseconds to many minutes at a time, and user CPU time slows with
// them (a busy sibling hyperthread: throughput-bound code suffers, a
// dependent chain does not, no steal time is reported). Raw timings of
// identical code therefore spread 20-30 % between runs, whatever
// statistic is taken inside a run. So the driver times a fixed,
// throughput-bound reference kernel next to every round it drives, and
// every gated timing is reported divided by the slowdown the kernel
// saw around that frame: milliseconds as the reference box at its
// quietest would show them. A change to the program moves the program's
// timings and not the kernel's, so it shows in full; the host's state
// moves both and cancels. The raw values stay in the per-layer metrics.

// refNominalNs is what one refKernel call takes on the reference box
// (2-vCPU 2.1 GHz Xeon guest) at its quietest. On another machine it is
// only a scale factor, the same for every commit measured there.
const refNominalNs = 32500

// meterWindow is how far, in sample points either side, the slowdown
// around a frame is averaged: the host's state has a white component
// (single samples correlate 0.4 with their neighbours) and a slow one
// that decays over a few hundred milliseconds.
const meterWindow = 8

// meterCalls is how many kernel calls make one sample point.
const meterCalls = 2

var refSink uint64

// refKernel is four independent xorshift chains: integer work bound by
// issue ports, which is what a busy sibling thread takes away. It
// touches no memory and allocates nothing.
func refKernel() {
	a, b, c, d := 88172645463325252+refSink, uint64(0x9E3779B97F4A7C15), uint64(0xBF58476D1CE4E5B9), uint64(0x94D049BB133111EB)
	for i := 0; i < 12000; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	refSink += a + b + c + d
}

// hostMeter collects reference-kernel timings, one sample point per
// call of sample.
type hostMeter struct {
	ns    []float64     // per sample point: mean nanoseconds per kernel call
	spent time.Duration // total time inside sample
}

func (h *hostMeter) sample() {
	t0 := time.Now()
	for k := 0; k < meterCalls; k++ {
		refKernel()
	}
	d := time.Since(t0)
	h.spent += d
	h.ns = append(h.ns, float64(d)/meterCalls)
}

// slowdowns returns, per sample point, the host's slowdown around it:
// the mean of the samples within meterWindow points, over nominal.
func (h *hostMeter) slowdowns() []float64 {
	n := len(h.ns)
	sum := make([]float64, n+1)
	for i, v := range h.ns {
		sum[i+1] = sum[i] + v
	}
	out := make([]float64, n)
	for i := range out {
		lo, hi := max(i-meterWindow, 0), min(i+meterWindow+1, n)
		out[i] = (sum[hi] - sum[lo]) / float64(hi-lo) / refNominalNs
	}
	return out
}

// meterWhile runs fn while a goroutine of its own samples the host
// every couple of milliseconds — for work the driver cannot sample
// between, such as set-up, much of which is one long call. It returns
// how long fn took by the clock and how long it would have taken on the
// quiet reference box: every interval between samples divided by the
// slowdown its sample saw.
func meterWhile(fn func() error) (wall, quiet time.Duration, err error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var quietNs float64
	start := time.Now()
	var end time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev, slow := start, 1.0
		for {
			select {
			case <-stop:
				quietNs += float64(end.Sub(prev)) / slow
				return
			default:
			}
			t0 := time.Now()
			for k := 0; k < meterCalls; k++ {
				refKernel()
			}
			t1 := time.Now()
			slow = float64(t1.Sub(t0)) / meterCalls / refNominalNs
			quietNs += float64(t1.Sub(prev)) / slow
			prev = t1
			time.Sleep(2 * time.Millisecond)
		}
	}()
	err = fn()
	end = time.Now()
	close(stop)
	wg.Wait()
	return end.Sub(start), time.Duration(quietNs), err
}
