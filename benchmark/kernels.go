package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/compute"
	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/isosurf"
	"repro/internal/vr"
	"repro/internal/wire"
)

// Kernel replays: single layers re-run in isolation after the timed
// phase, on the inputs the workload left behind. They attribute, they
// never gate.

const (
	// kernelMinTime is how long a replay loops to get a stable mean.
	kernelMinTime = 100 * time.Millisecond
	// captureFrames is how many replies the wire-decode replay records.
	captureFrames = 64
	// rttCalls is how many vw.whoami round trips the dlib probe makes.
	rttCalls = 200
)

// dlibRTT times the cheapest call the stack serves, from where a
// workstation sits: the fixed cost of crossing every hop.
func (s *stack) dlibRTT() (p50us float64, err error) {
	c := s.dialHead()
	defer c.Close()
	us := make([]float64, 0, rttCalls)
	for i := 0; i < rttCalls; i++ {
		t0 := time.Now()
		if _, err := c.Call(wire.ProcWhoAmI, nil); err != nil {
			return 0, fmt.Errorf("dlib rtt probe: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// wireDecode captures the replies a passive codec-v2 observer receives
// while workstation 0 replays the first measured rounds of the script,
// then times decoding them through fresh decoders. It returns nanoseconds
// per decoded point (rake and tool points, references included).
func (s *stack) wireDecode(sc *script) (nsPerPoint float64, err error) {
	obs := s.dialHead()
	defer obs.Close()
	out, err := obs.Call(wire.ProcHello2, wire.EncodeHelloRequest(wire.CodecV2))
	if err != nil {
		return 0, fmt.Errorf("wire decode replay: hello2: %w", err)
	}
	_, info, err := wire.DecodeHelloReply(out)
	if err != nil {
		return 0, err
	}
	watch := wire.EncodeClientUpdate(wire.ClientUpdate{
		Head: headAt(eyes[1]), Hand: restHands[1], Gesture: uint8(vr.GestureOpen),
	})
	var replies [][]byte
	for k := 0; k < captureFrames; k++ {
		i := k % sc.rounds
		if _, _, err := s.oneFrame(0, sc.at(0, i), -1); err != nil {
			return 0, fmt.Errorf("wire decode replay: round %d: %w", i, err)
		}
		rep, err := obs.Call(wire.ProcFrame, watch)
		if err != nil {
			return 0, fmt.Errorf("wire decode replay: observer frame: %w", err)
		}
		replies = append(replies, rep)
	}

	var points, passes int64
	start := time.Now()
	for time.Since(start) < kernelMinTime {
		dec := wire.NewFrameDecoder(info.Quantizer())
		for _, rep := range replies {
			r, err := dec.Decode(rep)
			if err != nil {
				return 0, fmt.Errorf("wire decode replay: %w", err)
			}
			if passes == 0 {
				points += int64(r.TotalPoints())
				if r.Tools != nil {
					points += int64(r.Tools.TotalPoints())
				}
			}
		}
		passes++
	}
	return ratio(float64(time.Since(start)), float64(points*passes)), nil
}

// scalarIntegrate runs the plain single-threaded integrator over the
// scene's seeds on timestep 0 — the baseline the engines are compared
// with — and returns nanoseconds per path point.
func (s *stack) scalarIntegrate() (nsPerPoint float64, err error) {
	g, f, err := s.step0()
	if err != nil {
		return 0, err
	}
	sampler := compute.SteadyBatch{F: f, G: g}
	opts := integrate.DefaultOptions()
	var points, passes int64
	start := time.Now()
	for time.Since(start) < kernelMinTime {
		for _, snap := range s.srv.Env().Rakes() {
			for _, seed := range snap.Rake.SeedsGrid(g) {
				if n := len(integrate.Streamline(sampler, seed, 0, opts)); n > 1 && passes == 0 {
					points += int64(n - 1)
				}
			}
		}
		passes++
	}
	return ratio(float64(time.Since(start)), float64(points*passes)), nil
}

// isoExtract times what one isosurface relevel costs on heavy's
// levels, as the server pays it on a new timestep: physical velocity
// and speed scalar of timestep 0, then the march at full resolution
// with the server's worker count. It returns the median time and the
// mean triangle count.
func (s *stack) isoExtract() (extractMs, triangles float64, err error) {
	g, f, err := s.step0()
	if err != nil {
		return 0, 0, err
	}
	var times []float64
	var tris int
	for rep := 0; rep < 3; rep++ {
		for _, level := range isoLevels {
			t0 := time.Now()
			phys, err := field.ToPhysicalVelocity(f, g)
			if err != nil {
				return 0, 0, err
			}
			out, err := isosurf.ExtractParallel(g, isosurf.SpeedField(phys), level, 1, runtime.GOMAXPROCS(0))
			if err != nil {
				return 0, 0, err
			}
			times = append(times, float64(time.Since(t0))/1e6)
			tris += len(out)
		}
	}
	return median(times), float64(tris) / float64(len(times)), nil
}

// governedProbe runs heavy's scene under a 10 ms budget, where the
// governor must shed: how much fidelity it gives up and what latency
// it buys. Informational only.
func governedProbe(w *workload, ds *dataset, seed int64, rounds int) (pointsPerFrame, frameP50, shedFrac float64, err error) {
	s, err := buildStack(w, ds, stackOpts{budget: 10 * time.Millisecond})
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.close()
	sc := newScript(w, seed, rounds)
	if err := s.warmUp(sc); err != nil {
		return 0, 0, 0, err
	}
	r := s.measure(sc)
	if r.failed > 0 {
		return 0, 0, 0, fmt.Errorf("governed probe: %s", r.errs[0])
	}
	encoded := float64(r.after.srv.FramesEncoded - r.before.srv.FramesEncoded)
	shed := float64(r.after.srv.FramesShed - r.before.srv.FramesShed)
	return ratio(float64(r.points), float64(r.frames)), blockP50(r.normal(r.display), r.blocks), ratio(shed, encoded), nil
}
