package main

import (
	"math"
	"strings"
)

// layerRows are the rows of the attribution table, outside-in, with
// the per-layer metric each is reported as. Per frame they sum exactly
// to the frame's command-to-display time (trace.frame_sum_err_frac is
// the worst frame's error); their medians need not, and what is left
// over is trace.unattributed_frac.
var layerRows = []struct{ metric, what string }{
	{"trace.render_p50_ms", "client: RenderFrame"},
	{"client.decode_p50_ms", "client: NetStep outside the connection (encode, decode, interactor)"},
	{"dlib.hops_self_p50_ms", "dlib + pipe, all hops: call span minus the callee's serve span"},
	{"relay.leaf_self_p50_ms", "leaf relay: serve span minus its upstream call"},
	{"relay.mid_self_p50_ms", "mid relay: serve span minus its upstream call"},
	{"server.self_p50_ms", "origin: handler minus load wait, compute, encode (dispatch, lock, plan, session, v2 assembly)"},
	{"server.load_wait_p50_ms", "origin: timestep load wait (Stats delta)"},
	{"compute.engine_p50_ms", "origin: time covered by compute.Engine calls"},
	{"server.tools_other_p50_ms", "origin: compute stage outside the engine (shared tools, window loads, to-physical)"},
	{"server.encode_p50_ms", "origin: round encode (Stats delta)"},
}

// tracedMetrics derives every metric that needs the traced run: the
// attribution rows, the relay and handler spans, and the work the
// engine and store decorators saw.
func tracedMetrics(r *run, tr *tracer, m map[string]float64) {
	spans := tr.all()
	frames := byFrame(spans)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	rows := make([][]float64, len(layerRows))
	var display, handler, serverSelf []float64
	var sumErr float64
	var engineNs, enginePoints, engineUnits, engineCalls, fgLoadNs int64
	var first, last int64

	// Frame ids run workstation-major, so ascending id keeps workstation
	// 0's frames (ids below r.rounds) in frame order for the block
	// estimator.
	for id := 0; id < r.frames; id++ {
		var engine [][2]int64
		var origin, whole span
		for _, s := range frames[id] {
			switch s.Name {
			case spanEngine:
				engine = append(engine, [2]int64{s.Start, s.End})
				enginePoints += s.Points
				engineUnits += s.Units
				engineCalls++
			case spanLoad:
				fgLoadNs += s.dur()
			case servedBy:
				origin = s
			case spanFrame:
				whole = s
			}
		}
		if whole.End == 0 {
			continue // the frame failed before its spans were written
		}
		if first == 0 {
			first = whole.Start
		}
		last = max(last, whole.End)
		busy := cover(origin.Start, origin.End, engine)
		engineNs += busy
		if id >= r.rounds || id >= len(r.deltas) {
			continue // latency rows are the active workstation's
		}

		self := selfTimes(frames[id])
		var hops int64
		for name, v := range self {
			if strings.HasPrefix(name, "link.") {
				hops += v
			}
		}
		// Host-normalised like the untraced latencies, frame by frame.
		slow := r.slow[id]
		d := r.deltas[id]
		srvSelf := ms(origin.dur() - int64(d.load+d.compute+d.encode))
		var sum float64
		for i, v := range []float64{
			ms(self[spanRender]),
			ms(self[spanNetStep]),
			ms(hops),
			ms(self["leaf.serve"]),
			ms(self["mid.serve"]),
			srvSelf,
			ms(int64(d.load)),
			ms(busy),
			ms(int64(d.compute) - busy),
			ms(int64(d.encode)),
		} {
			rows[i] = append(rows[i], v/slow)
			sum += v
		}
		sumErr = max(sumErr, math.Abs(sum/ms(whole.dur())-1))
		display = append(display, ms(whole.dur())/slow)
		handler = append(handler, ms(origin.dur())/slow)
		serverSelf = append(serverSelf, srvSelf/slow)
	}
	m["trace.frame_sum_err_frac"] = sumErr

	// Every row is read from the same block — the one the display
	// metric comes from — so the table describes frames that happened
	// together.
	perBlock := blockStats(display, r.blocks, median)
	at := medianBlock(perBlock)
	var attributed float64
	for i, row := range layerRows {
		m[row.metric] = blockStats(rows[i], r.blocks, median)[at]
		attributed += m[row.metric]
	}
	m["trace.display_p50_ms"] = perBlock[at]
	m["trace.unattributed_frac"] = ratio(perBlock[at]-attributed, perBlock[at])
	m["server.handler_p50_ms"] = blockStats(handler, r.blocks, median)[at]

	rounds := float64(r.after.srv.Frames - r.before.srv.Frames)
	var sum float64
	for _, v := range serverSelf {
		sum += v
	}
	m["server.self_ms_per_round"] = ratio(sum, float64(len(serverSelf)))
	m["compute.engine_busy_ms_per_round"] = ratio(ms(engineNs), rounds)
	m["compute.calls_per_round"] = ratio(float64(engineCalls), rounds)
	m["compute.units_per_round"] = ratio(float64(engineUnits), rounds)
	m["compute.ns_per_point"] = ratio(float64(engineNs), float64(enginePoints))

	// Background loads are the prefetcher's; count those that ran
	// while the measured frames did.
	var bgLoadNs int64
	for _, s := range spans {
		if s.Name == spanLoad && s.Frame < 0 && s.Start >= first && s.End <= last {
			bgLoadNs += s.dur()
		}
	}
	m["store.fg_load_ms_per_frame"] = ratio(ms(fgLoadNs), float64(r.frames))
	m["store.bg_load_ms_per_frame"] = ratio(ms(bgLoadNs), float64(r.frames))
}
