package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/dlib"
	"repro/internal/relay"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// frameLimitMs is the paper's command-to-display bound (§1.2). Frames
// over it are counted as a diagnostic, never as failures: one host
// stall must not fail a run.
const frameLimitMs = 125.0

// litFloor is the least number of lit pixels a sampled frame must
// show; every scene here draws tens of thousands.
const litFloor = 1000

// snapshot is every cumulative counter the stack exposes, read before
// and after the measured phase.
type snapshot struct {
	srv       server.Stats
	relays    []relay.Stats
	calls     int64         // dlib calls dispatched, origin plus relays
	frameProc dlib.ProcStat // the origin's vw.frame + vw.framerelay
	diskLoads int64
	diskBytes int64
	diskTime  time.Duration
	cache     store.CacheStats
	cli       []client.Stats
	up        []int64 // bytes the workstations wrote
	mem       runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *stack) snap() snapshot {
	sn := snapshot{srv: s.srv.Stats(), calls: s.srv.Dlib().CallCount()}
	ps := s.srv.Dlib().ProcStats()
	for _, proc := range []string{wire.ProcFrame, wire.ProcFrameRelay} {
		sn.frameProc.Calls += ps[proc].Calls
		sn.frameProc.Total += ps[proc].Total
	}
	for _, r := range s.relays {
		sn.relays = append(sn.relays, r.Stats())
		sn.calls += r.Dlib().CallCount()
	}
	if s.disk != nil {
		sn.diskLoads, sn.diskBytes, sn.diskTime = s.disk.Stats()
	}
	sn.cache, _ = s.srv.CacheStats()
	for i, ws := range s.ws {
		sn.cli = append(sn.cli, ws.Stats())
		_, written := s.wsConns[i].Stats()
		sn.up = append(sn.up, written)
	}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// serverDelta is what one frame added to the origin's stage timers
// (traced runs only: it costs a Stats() call per frame).
type serverDelta struct {
	compute, load, encode time.Duration
}

// run is the raw outcome of one measured phase.
type run struct {
	rounds int
	blocks int // how many blocks the estimator splits the run into
	frames int // rounds x workstations
	failed int
	errs   []string

	// Per measured frame of workstation 0, in milliseconds, and the
	// round each belongs to.
	display, state, render []float64
	round                  []int
	// busy is each round's command-to-display time summed over the
	// workstations, in milliseconds.
	busy []float64
	// Per block: process CPU milliseconds, the meter's own excluded.
	blockCPU []float64
	// lit is the lit-pixel count of the last frame of each block.
	lit []float64

	// meter has one sample point per round, taken after it; slow is the
	// host's slowdown around each round.
	meter hostMeter
	slow  []float64

	points  int64 // decoded points over all frames
	over125 int

	before, after snapshot

	// Traced runs: the origin's stage deltas per workstation-0 frame.
	deltas []serverDelta
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// oneFrame drives a single workstation frame: queue the commands, run
// the network step, render. It returns the time to state and to
// display.
func (s *stack) oneFrame(ws int, in frameInput, frameID int) (state, display time.Duration, err error) {
	w := s.ws[ws]
	tr := s.opts.tr
	if tr != nil && frameID >= 0 {
		tr.frame.Store(int64(frameID))
	}
	t0 := time.Now()
	for _, c := range in.cmds {
		w.Queue(c)
	}
	err = w.NetStep(in.pose)
	t1 := time.Now()
	if err == nil {
		err = w.RenderFrame(in.pose.Head)
	}
	t2 := time.Now()
	if tr != nil {
		tr.frame.Store(-1)
		if frameID >= 0 {
			a, b, c := int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)), int64(t2.Sub(tr.epoch))
			tr.add(span{Name: spanFrame, Frame: frameID, Start: a, End: c})
			tr.add(span{Name: spanNetStep, Parent: spanFrame, Frame: frameID, Start: a, End: b})
			tr.add(span{Name: spanRender, Parent: spanFrame, Frame: frameID, Start: b, End: c})
		}
		tr.harvest(ws, frameID)
	}
	return t1.Sub(t0), t2.Sub(t0), err
}

// warmUp queues the scene and plays the script's warm-up rounds.
func (s *stack) warmUp(sc *script) error {
	for _, c := range sc.scene {
		s.ws[0].Queue(c)
	}
	for i := -sc.warm; i < 0; i++ {
		for ws := range s.ws {
			if _, _, err := s.oneFrame(ws, sc.at(ws, i), -1); err != nil {
				return fmt.Errorf("warm-up round %d workstation %d: %w", i, ws, err)
			}
		}
	}
	return nil
}

// measure drives the script's measured rounds closed-loop and
// lock-step from this goroutine: one frame in flight, workstations
// served round-robin, the host meter sampled between rounds.
func (s *stack) measure(sc *script) *run {
	r := &run{rounds: sc.rounds, blocks: s.w.blocksFor(sc.rounds)}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	block := sc.rounds / r.blocks

	runtime.GC()
	r.before = s.snap()
	last := r.before.srv
	blockCPU, blockMeter := cpuTime(), r.meter.spent
	for i := 0; i < sc.rounds; i++ {
		var busy time.Duration
		for ws := range s.ws {
			state, display, err := s.oneFrame(ws, sc.at(ws, i), ws*sc.rounds+i)
			r.frames++
			busy += display
			if err != nil {
				r.fail("round %d workstation %d: %v", i, ws, err)
				continue
			}
			if ws == 0 {
				r.state = append(r.state, ms(state))
				r.display = append(r.display, ms(display))
				r.render = append(r.render, ms(display-state))
				r.round = append(r.round, i)
				if ms(display) > frameLimitMs {
					r.over125++
				}
			}
			if s.opts.tr != nil {
				now := s.srv.Stats()
				if ws == 0 {
					r.deltas = append(r.deltas, serverDelta{
						compute: now.ComputeTime - last.ComputeTime,
						load:    now.LoadTime - last.LoadTime,
						encode:  now.EncodeTime - last.EncodeTime,
					})
				}
				last = now
			}
			if latest, ok := s.ws[ws].Latest(); ok {
				r.points += int64(latest.TotalPoints())
				if latest.Tools != nil {
					r.points += int64(latest.Tools.TotalPoints())
				}
			}
		}
		r.busy = append(r.busy, ms(busy))
		r.meter.sample()
		if (i+1)%block == 0 {
			// The meter spins on this thread, so its wall time is its CPU time.
			cpu := cpuTime()
			r.blockCPU = append(r.blockCPU, ms(cpu-blockCPU-(r.meter.spent-blockMeter)))
			blockCPU, blockMeter = cpu, r.meter.spent
			lit := s.ws[0].Framebuffer().CountLit(1)
			r.lit = append(r.lit, float64(lit))
			if lit < litFloor {
				r.fail("round %d: only %d lit pixels on workstation 0", i, lit)
			}
		}
	}
	r.after = s.snap()
	r.slow = r.meter.slowdowns()
	return r
}

// normal returns a workstation-0 series with every frame divided by
// the host's slowdown around its round.
func (r *run) normal(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for k, x := range xs {
		out[k] = x / r.slow[r.round[k]]
	}
	return out
}

// perBlock applies stat to each block's rounds [lo, hi).
func (r *run) perBlock(stat func(lo, hi int) float64) []float64 {
	size := r.rounds / r.blocks
	per := make([]float64, r.blocks)
	for b := range per {
		per[b] = stat(b*size, (b+1)*size)
	}
	return per
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// untracedMetrics derives every metric that comes from an untraced
// run: the end-to-end ones (except setup_s and peak_rss_mb, which the
// caller owns) and the per-layer counts and stage means.
func (s *stack) untracedMetrics(r *run, m map[string]float64) {
	b, a := r.before, r.after
	frames := float64(r.frames)
	rounds := float64(a.srv.Frames - b.srv.Frames)
	dur := func(d time.Duration) float64 { return float64(d) / 1e6 }

	var down, up, cliRounds float64
	for i := range a.cli {
		down += float64(a.cli[i].BytesDown - b.cli[i].BytesDown)
		cliRounds += float64(a.cli[i].Rounds - b.cli[i].Rounds)
		up += float64(a.up[i] - b.up[i])
	}

	// The gated timings are host-normalised (host.go): latencies frame
	// by frame, driven time round by round, CPU time block by block.
	nws := float64(len(s.ws))
	m["cmd_to_display_p50_ms"] = blockP50(r.normal(r.display), r.blocks)
	m["cmd_to_state_p50_ms"] = blockP50(r.normal(r.state), r.blocks)
	m["frames_per_s"] = blockMedian(r.perBlock(func(lo, hi int) float64 {
		var busy float64
		for i := lo; i < hi; i++ {
			busy += r.busy[i] / r.slow[i]
		}
		return ratio(float64(hi-lo)*nws, busy/1e3)
	}))
	m["wire_bytes_per_frame"] = ratio(down, frames)
	m["cpu_ms_per_frame"] = blockMedian(r.perBlock(func(lo, hi int) float64 {
		var slow float64
		for i := lo; i < hi; i++ {
			slow += r.slow[i]
		}
		return r.blockCPU[lo/(hi-lo)] / (float64(hi-lo) * nws) / (slow / float64(hi-lo))
	}))

	// What the clock actually read: the same estimators without the
	// normalisation, and plain whole-run means as a cross-check on the
	// block rule (a cost rarer than once a block shows here).
	var busy, cpu float64
	for i := range r.busy {
		busy += r.busy[i]
	}
	for _, c := range r.blockCPU {
		cpu += c
	}
	m["host.slowdown"] = median(r.slow)
	m["host.display_raw_p50_ms"] = blockP50(r.display, r.blocks)
	m["host.state_raw_p50_ms"] = blockP50(r.state, r.blocks)
	m["host.frames_per_s_raw_mean"] = ratio(frames, busy/1e3)
	m["host.cpu_ms_per_frame_raw_mean"] = ratio(cpu, frames)

	m["client.render_p50_ms"] = blockP50(r.normal(r.render), r.blocks)
	m["client.points_per_frame"] = ratio(float64(r.points), frames)
	m["client.rounds_per_frame"] = ratio(cliRounds, frames)
	// The tail quoted is the highest percentile with at least ten
	// samples beyond it.
	m["client.display_tail_pct"] = tailPercentile(len(r.display))
	m["client.display_tail_ms"] = percentile(r.display, m["client.display_tail_pct"])
	m["client.display_max_ms"] = percentile(r.display, 100)
	m["client.frames_over_125ms"] = float64(r.over125)
	m["client.lit_pixels"] = median(r.lit)

	m["wire.bytes_up_per_frame"] = ratio(up, frames)
	inline := float64(a.srv.V2RakesInline - b.srv.V2RakesInline)
	ref := float64(a.srv.V2RakesRef - b.srv.V2RakesRef)
	m["wire.v2_ref_frac"] = ratio(ref, inline+ref)

	m["dlib.calls_per_frame"] = ratio(float64(a.calls-b.calls), frames)
	m["dlib.frame_handler_mean_us"] = ratio(
		float64(a.frameProc.Total-b.frameProc.Total)/1e3, float64(a.frameProc.Calls-b.frameProc.Calls))

	for _, name := range []string{"relay.up_bytes_per_round", "relay.hit_rate", "relay.amplification", "relay.hangups"} {
		m[name] = 0
	}
	if n := len(a.relays); n > 0 {
		la, lb := a.relays[n-1], b.relays[n-1] // the leaf
		fulls := float64(la.UpFulls - lb.UpFulls)
		markers := float64(la.UpMarkers - lb.UpMarkers)
		m["relay.up_bytes_per_round"] = ratio(float64(la.UpBytes-lb.UpBytes), rounds)
		m["relay.hit_rate"] = ratio(markers, fulls+markers)
		m["relay.amplification"] = ratio(float64(la.DownFrames-lb.DownFrames), fulls)
		for i := range a.relays {
			m["relay.hangups"] += float64(a.relays[i].Hangups - b.relays[i].Hangups)
		}
	}

	encoded := float64(a.srv.FramesEncoded - b.srv.FramesEncoded)
	m["server.encode_ms_per_round"] = ratio(dur(a.srv.EncodeTime-b.srv.EncodeTime), rounds)
	m["server.compute_ms_per_round"] = ratio(dur(a.srv.ComputeTime-b.srv.ComputeTime), rounds)
	m["server.load_wait_ms_per_round"] = ratio(dur(a.srv.LoadTime-b.srv.LoadTime), rounds)
	m["server.rounds_per_frame"] = ratio(rounds, frames)
	m["server.encodes_per_round"] = ratio(encoded, rounds)
	rc, rr := float64(a.srv.RakesComputed-b.srv.RakesComputed), float64(a.srv.RakesReused-b.srv.RakesReused)
	m["server.rake_memo_hit_frac"] = ratio(rr, rc+rr)
	tc, tru := float64(a.srv.ToolsComputed-b.srv.ToolsComputed), float64(a.srv.ToolsReused-b.srv.ToolsReused)
	m["server.tool_memo_hit_frac"] = ratio(tru, tc+tru)
	m["server.tools_computed_per_frame"] = ratio(tc, frames)
	m["server.shed_frac"] = ratio(float64(a.srv.FramesShed-b.srv.FramesShed), encoded)

	loads := float64(a.diskLoads - b.diskLoads)
	m["store.disk_loads_per_frame"] = ratio(loads, frames)
	m["store.disk_bytes_per_frame"] = ratio(float64(a.diskBytes-b.diskBytes), frames)
	m["store.disk_busy_ms_per_load"] = ratio(dur(a.diskTime-b.diskTime), loads)
	hits := float64(a.cache.Hits + a.cache.Coalesced - b.cache.Hits - b.cache.Coalesced)
	misses := float64(a.cache.Misses - b.cache.Misses)
	m["store.cache_hit_rate"] = ratio(hits, hits+misses)
	m["store.cache_misses"] = misses
	m["store.cache_evictions_per_frame"] = ratio(float64(a.cache.Evictions-b.cache.Evictions), frames)

	m["process.alloc_bytes_per_frame"] = ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), frames)
	m["process.allocs_per_frame"] = ratio(float64(a.mem.Mallocs-b.mem.Mallocs), frames)
	m["process.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["process.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
}

// checkValidity applies the run-validity guards: conditions under
// which the run measured something other than the workload describes.
func checkValidity(w *workload, m map[string]float64) []string {
	var bad []string
	want := func(name string, ok bool, expect string) {
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: %s = %v, want %s", w.name, name, m[name], expect))
		}
	}
	want("server.shed_frac", m["server.shed_frac"] == 0, "0 (the governor must never shed)")
	switch w.name {
	case "drag":
		want("server.rounds_per_frame", m["server.rounds_per_frame"] == 1, "1")
		want("server.rake_memo_hit_frac", m["server.rake_memo_hit_frac"] == 7.0/8, "7/8")
	case "fleet":
		want("server.encodes_per_round", m["server.encodes_per_round"] == 1, "1")
		want("relay.hit_rate", m["relay.hit_rate"] == 0.5, "0.5")
	case "playback":
		want("store.cache_misses", m["store.cache_misses"] > 0, "> 0")
	}
	return bad
}
