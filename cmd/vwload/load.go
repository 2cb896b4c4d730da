package main

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dlib"
	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// LoadOptions configures a multi-workstation load run against an
// in-process server: K simulated workstations attached over netsim
// pipes, each running the hello/whoami handshake and then the
// once-per-frame exchange at a target rate. This is the scale-out
// experiment the paper could not run — it had one Convex and a handful
// of real workstations; we synthesize the fleet.
//
// Every count is taken as given: vwload's flags are the one place that
// defaults and validates them.
type LoadOptions struct {
	// Sessions is the number of simulated workstations (at least 1).
	Sessions int
	// Frames is the number of frame exchanges per session (at least 1).
	Frames int
	// FrameRate is the per-session target frame rate in frames/second;
	// 0 runs unpaced (as fast as the server answers).
	FrameRate float64
	// Link shapes each workstation's connection; the zero value is an
	// unconstrained in-memory pipe.
	Link netsim.Link
	// Rakes seeds the scene with this many streamline rakes before the
	// fleet attaches.
	Rakes int
	// SeedsPerRake is each rake's seed count.
	SeedsPerRake int
	// ActiveUsers is how many sessions move their hand every frame
	// (head-tracked users, forcing a fresh encode each round); the
	// rest hold still and ride the fan-out.
	ActiveUsers int
	// Play starts looping playback at speed 1 before the run, driving
	// timestep traffic through the store (and cache, if configured).
	Play bool
	// Codec is the frame codec each workstation requests at hello; 0 or
	// wire.CodecV1 asks for classic full frames, wire.CodecV2 negotiates
	// delta/quantized frames (each session decoding through its own
	// stateful decoder, as a real workstation would).
	Codec uint8
	// Relays inserts a cluster tier between the fleet and the origin:
	// this many leaf relay/cache nodes, workstations assigned
	// round-robin across them over opts.Link pipes while the relays'
	// upstream legs run unconstrained. 0 connects the fleet directly
	// (the legacy topology).
	Relays int
	// RelayHops is the tier depth when Relays > 0: 1 puts the leaves
	// directly on the origin; 2 funnels every leaf through one mid
	// aggregation relay, so the origin sees a single frame consumer
	// per round.
	RelayHops int
	// MaxDroppedFrac, when > 0, tolerates failed frame calls as long
	// as the fraction of dropped latency samples stays at or below
	// this threshold: the run returns a nil error with the drops
	// counted in LoadReport.DroppedSamples. At 0 any failure fails the
	// run (the legacy behavior) — but the drops are still counted, not
	// silently truncated from the latency ranking.
	MaxDroppedFrac float64
	// SessionFault, when non-nil, wraps workstation i's connection in
	// the returned fault plan (nil plans inject nothing) — the
	// deterministic failure seam for testing how the run accounts for
	// sessions that die partway.
	SessionFault func(i int) *netsim.FaultPlan
	// SteerEvery, when > 0, makes workstation 0 grab the steering lock
	// and push a parameter change every SteerEvery frames — live-mode
	// steering churn for in-situ load runs (no-op against a replay
	// server: the commands apply but nothing consumes them).
	SteerEvery int
	// ToolsEvery, when > 0, enables all three shared tools (isosurface,
	// cutting plane, vortex cores) during scene setup and has
	// workstation 0 grab the iso and plane locks and nudge the iso
	// level and plane position every ToolsEvery frames — shared-tool
	// churn that forces tool geometry recomputes alongside the rakes.
	ToolsEvery int
}

// TierStats aggregates one relay tier's traffic: what its nodes served
// downstream (to workstations, or to the tier below) versus what they
// fetched upstream. The gap between the two is the tier's fan-out win.
type TierStats struct {
	Name  string // "leaf" (closest to workstations) or "mid"
	Nodes int
	// Stats sums the tier's nodes: downstream deliveries, upstream fulls
	// vs markers and their bytes, hangups, and the marker HitRate.
	relay.Stats
}

// Amplification is frames delivered downstream per full round payload
// fetched upstream — how many deliveries each copy of the round's
// bytes crossing the upstream link paid for.
func (t TierStats) Amplification() float64 {
	if t.UpFulls == 0 {
		return 0
	}
	return float64(t.DownFrames) / float64(t.UpFulls)
}

// LatencyStats summarizes per-call frame latencies.
type LatencyStats struct {
	P50, P90, P99, Max time.Duration
	Mean               time.Duration
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Sessions int
	Frames   int // per session
	Codec    uint8
	Elapsed  time.Duration

	// Server-side deltas over the run.
	Rounds        int64 // computation rounds (incl. whole-frame memo)
	FramesReused  int64 // rounds served whole from the memo
	FramesEncoded int64 // rounds recomputed: each produced its shared payload once
	FramesShipped int64 // per-session sends
	BytesShipped  int64
	Points        int64

	// FramesShed counts encoded rounds shipped degraded and
	// PredictedTime the governor's summed cost predictions over the
	// run (both zero with the governor disabled).
	FramesShed    int64
	PredictedTime time.Duration

	// Shared-tool accounting: geometry recomputes vs memo hits and the
	// tool points shipped (all zero when no tool is active).
	ToolsComputed int64
	ToolsReused   int64
	ToolPoints    int64

	// Latency is the distribution of per-session frame call times.
	Latency LatencyStats
	// Errors counts failed frame calls (the run continues past them).
	Errors int64
	// DroppedSamples counts latency samples lost to failed frame calls
	// — samples the percentiles above do NOT cover. Always populated;
	// LoadOptions.MaxDroppedFrac decides whether drops fail the run.
	DroppedSamples int

	// Cluster tier accounting, populated when LoadOptions.Relays > 0.
	// Tiers[0] is the leaf tier next to the workstations; a second
	// entry is the mid aggregation tier when RelayHops == 2. The
	// Origin* fields are the origin's relay-procedure deltas: full
	// round payloads vs markers it answered over upstream links.
	Relays             int
	RelayHops          int
	Tiers              []TierStats
	OriginRelayFulls   int64
	OriginRelayMarkers int64
	OriginRelayBytes   int64

	// Cache holds the shared timestep cache's counters when the server
	// has one.
	Cache    store.CacheStats
	HasCache bool
}

// Delivered returns the frames and bytes actually handed to
// workstations: the origin's per-session sends on a direct run, the
// leaf tier's downstream deliveries on a relayed one (where the origin
// ships each round once per relay, not once per workstation).
func (r LoadReport) Delivered() (frames, bytes int64) {
	if len(r.Tiers) > 0 {
		return r.Tiers[0].DownFrames, r.Tiers[0].DownBytes
	}
	return r.FramesShipped, r.BytesShipped
}

// FanOut returns delivered frames per encoded-or-reused round — the
// scale-out win: with K workstations it approaches K while
// FramesEncoded stays one per round.
func (r LoadReport) FanOut() float64 {
	if r.Rounds == 0 {
		return 0
	}
	frames, _ := r.Delivered()
	return float64(frames) / float64(r.Rounds)
}

// BytesPerFrame returns the mean wire bytes per delivered frame — the
// paper's Table 1 bandwidth column, and the number codec v2's deltas
// and quantization exist to shrink.
func (r LoadReport) BytesPerFrame() float64 {
	frames, bytes := r.Delivered()
	if frames == 0 {
		return 0
	}
	return float64(bytes) / float64(frames)
}

// String formats the report as a one-run summary table. The shed
// column only appears when the governor degraded at least one round.
func (r LoadReport) String() string {
	codec := r.Codec
	if codec == 0 {
		codec = wire.CodecV1
	}
	// In a relayed run the origin ships only relay payloads; the fleet's
	// frames come off the leaf tier, so the headline counts deliveries.
	delivered, deliveredBytes := r.Delivered()
	out := fmt.Sprintf(
		"sessions=%d frames=%d codec=v%d elapsed=%v rounds=%d encoded=%d reused=%d delivered=%d (fan-out %.1fx) bytes=%d bytes/frame=%.0f errors=%d lat p50=%v p90=%v p99=%v max=%v",
		r.Sessions, r.Frames, codec, r.Elapsed.Round(time.Millisecond),
		r.Rounds, r.FramesEncoded, r.FramesReused, delivered,
		r.FanOut(), deliveredBytes, r.BytesPerFrame(), r.Errors,
		r.Latency.P50.Round(time.Microsecond), r.Latency.P90.Round(time.Microsecond),
		r.Latency.P99.Round(time.Microsecond), r.Latency.Max.Round(time.Microsecond))
	if r.FramesShed > 0 {
		out += fmt.Sprintf(" shed=%d/%d", r.FramesShed, r.FramesEncoded)
	}
	if r.ToolsComputed > 0 || r.ToolsReused > 0 {
		out += fmt.Sprintf(" tools computed=%d reused=%d points=%d",
			r.ToolsComputed, r.ToolsReused, r.ToolPoints)
	}
	if r.DroppedSamples > 0 {
		out += fmt.Sprintf(" dropped=%d/%d samples",
			r.DroppedSamples, r.Sessions*r.Frames)
	}
	if r.Relays > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%s\ncluster: %d relays x %d hop(s); origin answered fulls=%d markers=%d (%d bytes up)",
			out, r.Relays, r.RelayHops,
			r.OriginRelayFulls, r.OriginRelayMarkers, r.OriginRelayBytes)
		for _, t := range r.Tiers {
			fmt.Fprintf(&b, "\ntier %s: nodes=%d delivered=%d frames (%d bytes) up fulls=%d markers=%d (%d bytes) hit=%.1f%% amp=%.1fx hangups=%d",
				t.Name, t.Nodes, t.DownFrames, t.DownBytes,
				t.UpFulls, t.UpMarkers, t.UpBytes,
				100*t.HitRate(), t.Amplification(), t.Hangups)
		}
		return b.String()
	}
	return out
}

// RunLoad drives the server with opts.Sessions simulated workstations
// and reports server-side round accounting plus client-side latency
// percentiles. g is the grid of the server's dataset; the scene's rakes
// are laid out across its bounds. The server keeps running afterwards;
// only the simulated connections are torn down. A run that failed
// before the fleet attached returns a zero LoadReport with its error.
func RunLoad(s *server.Server, g *grid.Grid, opts LoadOptions) (LoadReport, error) {
	// Cluster tier: stand up the relay topology the fleet will attach
	// through. The relays' upstream legs are unconstrained in-memory
	// pipes; only the workstation edge runs over opts.Link.
	dialOrigin := func() (net.Conn, error) {
		serverEnd, clientEnd := netsim.Pipe(netsim.Link{})
		go s.Dlib().ServeConn(serverEnd)
		return clientEnd, nil
	}
	dialRelay := func(rn *relay.Relay) dlib.DialFunc {
		return func() (net.Conn, error) {
			serverEnd, clientEnd := netsim.Pipe(netsim.Link{})
			go rn.Dlib().ServeConn(serverEnd)
			return clientEnd, nil
		}
	}
	var (
		leaves []*relay.Relay
		mid    *relay.Relay
	)
	shutdown := func() {
		for _, rn := range leaves {
			rn.Dlib().Close()
			rn.Close()
		}
		if mid != nil {
			mid.Dlib().Close()
			mid.Close()
		}
	}
	if opts.Relays > 0 {
		upstream := dlib.DialFunc(dialOrigin)
		if opts.RelayHops == 2 {
			var err error
			if mid, err = relay.New(relay.Config{Upstreams: []dlib.DialFunc{dialOrigin}}); err != nil {
				return LoadReport{}, fmt.Errorf("mid relay: %w", err)
			}
			upstream = dialRelay(mid)
		}
		for k := 0; k < opts.Relays; k++ {
			rn, err := relay.New(relay.Config{Upstreams: []dlib.DialFunc{upstream}})
			if err != nil {
				shutdown()
				return LoadReport{}, fmt.Errorf("leaf relay %d: %w", k, err)
			}
			leaves = append(leaves, rn)
		}
	}
	defer shutdown()

	// Scene setup runs over its own connection so per-session frame
	// counts stay uniform.
	setupServer, setupClient := netsim.Pipe(netsim.Link{})
	go s.Dlib().ServeConn(setupServer)
	setup := dlib.NewClient(setupClient)
	var cmds []wire.Command
	b := g.Bounds()
	span := b.Max.Sub(b.Min)
	for i := 0; i < opts.Rakes; i++ {
		frac := (float32(i) + 0.5) / float32(opts.Rakes)
		x := b.Min.X + 0.15*span.X
		z := b.Min.Z + 0.5*span.Z
		cmds = append(cmds, wire.Command{
			Kind:     wire.CmdAddRake,
			P0:       vmath.V3(x, b.Min.Y+frac*span.Y*0.8, z),
			P1:       vmath.V3(x, b.Min.Y+frac*span.Y*0.8+0.15*span.Y, z),
			NumSeeds: uint32(opts.SeedsPerRake),
			Tool:     uint8(0), // streamline
		})
	}
	if opts.ToolsEvery > 0 {
		cmds = append(cmds,
			wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: 1},
			wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: 0, Value: 0.5},
			wire.Command{Kind: wire.CmdVortexToggle, Flag: 1, Value: 0.01},
		)
	}
	if opts.Play {
		cmds = append(cmds,
			wire.Command{Kind: wire.CmdSetLoop, Flag: 1},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1},
		)
	}
	if _, err := setup.Call(wire.ProcFrame, wire.EncodeClientUpdate(wire.ClientUpdate{Commands: cmds})); err != nil {
		setup.Close()
		return LoadReport{}, fmt.Errorf("setup frame: %w", err)
	}
	setup.Close()

	// Snapshot after setup so the report's deltas cover exactly the
	// fleet's frames, not the scene-building round.
	before := s.Stats()

	var period time.Duration
	if opts.FrameRate > 0 {
		period = time.Duration(float64(time.Second) / opts.FrameRate)
	}

	latencies := make([]time.Duration, opts.Sessions*opts.Frames)
	var errCount int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		errCount++
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < opts.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serverEnd, clientEnd := netsim.Pipe(opts.Link)
			if len(leaves) > 0 {
				go leaves[i%len(leaves)].Dlib().ServeConn(serverEnd)
			} else {
				go s.Dlib().ServeConn(serverEnd)
			}
			var conn net.Conn = clientEnd
			if opts.SessionFault != nil {
				if p := opts.SessionFault(i); p != nil {
					conn = p.Wrap(clientEnd)
				}
			}
			c := dlib.NewClient(conn)
			defer c.Close()
			out, err := c.Call(wire.ProcHello2, wire.EncodeHelloRequest(max(opts.Codec, wire.CodecV1)))
			if err != nil {
				fail(fmt.Errorf("session %d: hello2: %w", i, err))
				return
			}
			codec, info, err := wire.DecodeHelloReply(out)
			if err != nil {
				fail(fmt.Errorf("session %d: hello2 reply: %w", i, err))
				return
			}
			var dec *wire.FrameDecoder
			if codec >= wire.CodecV2 {
				dec = wire.NewFrameDecoder(info.Quantizer())
			}
			active := i < opts.ActiveUsers
			hand := vmath.V3(float32(i), 0, 0)
			// Stagger session starts across one period so the fleet
			// doesn't phase-lock into a single burst.
			var next time.Time
			if period > 0 {
				next = start.Add(period * time.Duration(i) / time.Duration(opts.Sessions))
			}
			for f := 0; f < opts.Frames; f++ {
				if period > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(period)
				}
				if active {
					hand = vmath.V3(float32(i), float32(f)*0.01, 0)
				}
				var steerCmds []wire.Command
				if opts.SteerEvery > 0 && i == 0 && f%opts.SteerEvery == 0 {
					// Workstation 0 steers: grab (idempotent for the
					// holder), then a full parameter triple that wobbles
					// with the frame number.
					steerCmds = []wire.Command{
						{Kind: wire.CmdSteerGrab},
						{Kind: wire.CmdSteer, P0: vmath.V3(
							1+0.1*float32(f%5), 400, 0.5+0.05*float32(f%3))},
					}
				}
				if opts.ToolsEvery > 0 && i == 0 && f%opts.ToolsEvery == 0 {
					// Workstation 0 works the shared tools: grab both
					// locks (idempotent for the holder) and wobble the iso
					// level and plane position so the server recomputes
					// tool geometry under the fleet's fan-out.
					steerCmds = append(steerCmds,
						wire.Command{Kind: wire.CmdIsoGrab},
						wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: 1 + 0.1*float32(f%4)},
						wire.Command{Kind: wire.CmdPlaneGrab},
						wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: uint8(f % 3), Value: 0.25 + 0.1*float32(f%5)},
					)
				}
				payload := wire.EncodeClientUpdate(wire.ClientUpdate{
					Head:     vmath.Identity(),
					Hand:     hand,
					Commands: steerCmds,
				})
				callStart := time.Now()
				out, err := c.Call(wire.ProcFrame, payload)
				if err != nil {
					fail(fmt.Errorf("session %d frame %d: %w", i, f, err))
					return
				}
				latencies[i*opts.Frames+f] = time.Since(callStart)
				if dec != nil {
					_, err = dec.Decode(out)
				} else {
					// Well-formed is all the harness asks of a v1 reply.
					_, err = wire.SkimFrameReply(out)
				}
				if err != nil {
					fail(fmt.Errorf("session %d frame %d: decode: %w", i, f, err))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after := s.Stats()
	report := LoadReport{
		Sessions:      opts.Sessions,
		Frames:        opts.Frames,
		Codec:         opts.Codec,
		Elapsed:       elapsed,
		Rounds:        after.Frames - before.Frames,
		FramesReused:  after.FramesReused - before.FramesReused,
		FramesEncoded: after.FramesEncoded - before.FramesEncoded,
		FramesShipped: after.FramesShipped - before.FramesShipped,
		BytesShipped:  after.BytesShipped - before.BytesShipped,
		Points:        after.Points - before.Points,
		FramesShed:    after.FramesShed - before.FramesShed,
		PredictedTime: after.PredictedTime - before.PredictedTime,
		ToolsComputed: after.ToolsComputed - before.ToolsComputed,
		ToolsReused:   after.ToolsReused - before.ToolsReused,
		ToolPoints:    after.ToolPoints - before.ToolPoints,
		Errors:        errCount,
	}
	if opts.Relays > 0 {
		report.Relays = opts.Relays
		report.RelayHops = opts.RelayHops
		report.OriginRelayFulls = after.RelayFulls - before.RelayFulls
		report.OriginRelayMarkers = after.RelayMarkers - before.RelayMarkers
		report.OriginRelayBytes = after.RelayBytes - before.RelayBytes
		leafT := TierStats{Name: "leaf", Nodes: len(leaves)}
		for _, rn := range leaves {
			leafT.Add(rn.Stats())
		}
		report.Tiers = append(report.Tiers, leafT)
		if mid != nil {
			report.Tiers = append(report.Tiers, TierStats{Name: "mid", Nodes: 1, Stats: mid.Stats()})
		}
	}
	if cs, ok := s.CacheStats(); ok {
		report.Cache = cs
		report.HasCache = true
	}

	// Failed calls leave zero latencies; drop them before ranking —
	// but count them, so a partially failed run can't masquerade as a
	// clean one with quietly rosier percentiles.
	total := opts.Sessions * opts.Frames
	valid := latencies[:0]
	for _, l := range latencies {
		if l > 0 {
			valid = append(valid, l)
		}
	}
	report.DroppedSamples = total - len(valid)
	if len(valid) > 0 {
		sort.Slice(valid, func(a, b int) bool { return valid[a] < valid[b] })
		var sum time.Duration
		for _, l := range valid {
			sum += l
		}
		report.Latency = LatencyStats{
			P50:  core.Percentile(valid, 0.50),
			P90:  core.Percentile(valid, 0.90),
			P99:  core.Percentile(valid, 0.99),
			Max:  valid[len(valid)-1],
			Mean: sum / time.Duration(len(valid)),
		}
	}
	if firstErr != nil && opts.MaxDroppedFrac > 0 {
		if frac := float64(report.DroppedSamples) / float64(total); frac > opts.MaxDroppedFrac {
			return report, fmt.Errorf("run dropped %d/%d latency samples (%.1f%% > %.1f%% tolerated): %w",
				report.DroppedSamples, total, 100*frac, 100*opts.MaxDroppedFrac, firstErr)
		}
		return report, nil
	}
	return report, firstErr
}
