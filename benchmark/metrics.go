package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metric is one entry of the benchmark's contract.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	what   string
}

// endToEnd are the gated metrics: what a user of the system sees. The
// same seven on every workload; bound is the relative worsening that
// counts as a regression. The five timings are host-normalised
// (host.go); their raw readings are the host.* per-layer metrics.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "dataset synthesis + disk write + topology + handshakes + scene build + warm-up; median of 3 fresh processes"},
	{"cmd_to_display_p50_ms", "ms", "lower", 0.15, "active workstation: Queue(cmd) -> NetStep -> RenderFrame returns (the paper's 1/8 s loop)"},
	{"cmd_to_state_p50_ms", "ms", "lower", 0.15, "same, stopping when NetStep returns with decoded geometry"},
	{"frames_per_s", "1/s", "higher", 0.15, "frames displayed per second of driven time, all workstations"},
	{"wire_bytes_per_frame", "B", "lower", 0.01, "reply bytes into workstations / frames (Table 1's quantity)"},
	{"cpu_ms_per_frame", "ms", "lower", 0.15, "process user+sys CPU / frames: catches cost moved onto background goroutines"},
	{"peak_rss_mb", "MB", "lower", 0.15, "resident high-water mark at the end of the measured phase"},
}

// perLayer are the attribution metrics: ungated, one owner each. The
// source is marked U (untraced run), T (traced run at 1/4 length) or K
// (kernel replay after the run).
var perLayer = []metric{
	{"trace.render_p50_ms", "ms", "lower", 0, "T RenderFrame span in the traced run"},
	{"client.decode_p50_ms", "ms", "lower", 0, "T NetStep minus the workstation's connection span"},
	{"dlib.hops_self_p50_ms", "ms", "lower", 0, "T sum over hops of call span minus serve span"},
	{"relay.leaf_self_p50_ms", "ms", "lower", 0, "T leaf serve span minus its upstream call span"},
	{"relay.mid_self_p50_ms", "ms", "lower", 0, "T mid serve span minus its upstream call span"},
	{"server.self_p50_ms", "ms", "lower", 0, "T origin handler minus load wait, compute and encode"},
	{"server.load_wait_p50_ms", "ms", "lower", 0, "T origin load wait per frame"},
	{"compute.engine_p50_ms", "ms", "lower", 0, "T time covered by engine calls per frame"},
	{"server.tools_other_p50_ms", "ms", "lower", 0, "T compute stage outside the engine per frame"},
	{"server.encode_p50_ms", "ms", "lower", 0, "T round encode per frame"},
	{"trace.display_p50_ms", "ms", "lower", 0, "T command-to-display in the traced run"},
	{"trace.overhead_frac", "frac", "lower", 0, "traced / untraced cmd_to_display_p50_ms - 1"},
	{"trace.unattributed_frac", "frac", "lower", 0, "T share of traced display p50 the rows above do not cover"},
	{"trace.frame_sum_err_frac", "frac", "lower", 0, "T worst frame's |sum of its rows / its duration - 1|; 0 when spans nest"},

	{"host.slowdown", "x", "lower", 0, "U median over rounds of reference-kernel time / nominal: what the timings were divided by"},
	{"host.setup_raw_s", "s", "lower", 0, "U the run process's set-up as the clock read it"},
	{"host.display_raw_p50_ms", "ms", "lower", 0, "U cmd_to_display_p50_ms as the clock read it"},
	{"host.state_raw_p50_ms", "ms", "lower", 0, "U cmd_to_state_p50_ms as the clock read it"},
	{"host.frames_per_s_raw_mean", "1/s", "higher", 0, "U frames / driven time over the whole run, raw: cross-check on the block rule"},
	{"host.cpu_ms_per_frame_raw_mean", "ms", "lower", 0, "U CPU / frames over the whole run, raw: cross-check on the block rule"},

	{"client.render_p50_ms", "ms", "lower", 0, "U time around RenderFrame"},
	{"client.points_per_frame", "count", "lower", 0, "U decoded rake and tool points per frame"},
	{"client.rounds_per_frame", "count", "lower", 0, "U distinct rounds seen / frames"},
	{"client.display_tail_ms", "ms", "lower", 0, "U tail of command-to-display over all measured frames, at the percentile below"},
	{"client.display_tail_pct", "pct", "higher", 0, "U the highest percentile with at least ten samples beyond it"},
	{"client.display_max_ms", "ms", "lower", 0, "U worst command-to-display"},
	{"client.frames_over_125ms", "count", "lower", 0, "U frames over the paper's 1/8 s bound"},
	{"client.lit_pixels", "count", "higher", 0, "U median lit pixels on sampled frames"},

	{"wire.bytes_up_per_frame", "B", "lower", 0, "U bytes workstations wrote / frames"},
	{"wire.v2_ref_frac", "frac", "higher", 0, "U v2 directory entries shipped as references"},
	{"wire.decode_ns_per_point", "ns", "lower", 0, "K captured v2 replies through a fresh decoder"},

	{"dlib.rtt_p50_us", "us", "lower", 0, "U vw.whoami round trip across every hop"},
	{"dlib.calls_per_frame", "count", "lower", 0, "U calls dispatched, origin plus relays / frames"},
	{"dlib.frame_handler_mean_us", "us", "lower", 0, "U origin ProcStats mean of vw.frame + vw.framerelay"},

	{"relay.up_bytes_per_round", "B", "lower", 0, "U leaf upstream reply bytes / rounds"},
	{"relay.hit_rate", "frac", "higher", 0, "U leaf upstream exchanges answered by a marker"},
	{"relay.amplification", "count", "higher", 0, "U leaf frames delivered per full payload fetched"},
	{"relay.hangups", "count", "lower", 0, "U downstream connections dropped by a relay"},

	{"server.handler_p50_ms", "ms", "lower", 0, "T origin serve span"},
	{"server.self_ms_per_round", "ms", "lower", 0, "T mean of handler minus load wait, compute, encode"},
	{"server.encode_ms_per_round", "ms", "lower", 0, "U Stats.EncodeTime / rounds"},
	{"server.compute_ms_per_round", "ms", "lower", 0, "U Stats.ComputeTime / rounds"},
	{"server.load_wait_ms_per_round", "ms", "lower", 0, "U Stats.LoadTime / rounds"},
	{"server.rounds_per_frame", "count", "lower", 0, "U rounds / frames; repeats exactly"},
	{"server.encodes_per_round", "count", "lower", 0, "U round encodes / rounds; repeats exactly"},
	{"server.rake_memo_hit_frac", "frac", "higher", 0, "U rake memo hits / (hits + recomputes)"},
	{"server.tool_memo_hit_frac", "frac", "higher", 0, "U tool memo hits / (hits + recomputes)"},
	{"server.tools_computed_per_frame", "count", "lower", 0, "U shared-tool recomputes / frames"},
	{"server.shed_frac", "frac", "lower", 0, "U encoded rounds shipped degraded; must be 0"},
	{"server.governed_points_per_frame", "count", "higher", 0, "K heavy's scene at Budget 10 ms: points per frame"},
	{"server.governed_frame_p50_ms", "ms", "lower", 0, "K heavy's scene at Budget 10 ms: display p50"},
	{"server.governed_shed_frac", "frac", "lower", 0, "K heavy's scene at Budget 10 ms: rounds degraded"},

	{"compute.engine_busy_ms_per_round", "ms", "lower", 0, "T time covered by engine calls / rounds"},
	{"compute.calls_per_round", "count", "lower", 0, "T engine calls / rounds"},
	{"compute.units_per_round", "count", "lower", 0, "T section 5.3 work units / rounds"},
	{"compute.ns_per_point", "ns", "lower", 0, "T engine busy time / path points"},
	{"compute.speedup_vs_scalar", "x", "higher", 0, "integrate.scalar_ns_per_point / compute.ns_per_point"},
	{"integrate.scalar_ns_per_point", "ns", "lower", 0, "K plain single-threaded integrate.Streamline on the scene's seeds"},

	{"isosurf.extract_ms", "ms", "lower", 0, "K ToPhysicalVelocity + SpeedField + ExtractParallel on heavy's levels"},
	{"isosurf.triangles_per_extract", "count", "lower", 0, "K mean triangles per extraction"},

	{"store.disk_loads_per_frame", "count", "lower", 0, "U Disk.Stats loads / frames"},
	{"store.disk_bytes_per_frame", "B", "lower", 0, "U Disk.Stats bytes / frames"},
	{"store.disk_busy_ms_per_load", "ms", "lower", 0, "U Disk.Stats time / loads"},
	{"store.cache_hit_rate", "frac", "higher", 0, "U cache hits + coalesced / lookups"},
	{"store.cache_misses", "count", "lower", 0, "U cache misses; must be > 0 on playback"},
	{"store.cache_evictions_per_frame", "count", "lower", 0, "U cache evictions / frames"},
	{"store.fg_load_ms_per_frame", "ms", "lower", 0, "T disk reads on a handler's stack / frames"},
	{"store.bg_load_ms_per_frame", "ms", "lower", 0, "T disk reads on the prefetcher's goroutine / frames"},
	{"store.write_dataset_s", "s", "lower", 0, "U store.WriteDataset during set-up"},
	{"datasets.synth_s", "s", "lower", 0, "U datasets.Analytic during set-up"},

	{"process.alloc_bytes_per_frame", "B", "lower", 0, "U MemStats.TotalAlloc / frames"},
	{"process.allocs_per_frame", "count", "lower", 0, "U MemStats.Mallocs / frames"},
	{"process.gc_cycles", "count", "lower", 0, "U GC cycles during the measured phase"},
	{"process.gc_pause_ms", "ms", "lower", 0, "U GC pause total during the measured phase"},

	{"verify_s", "s", "lower", 0, "U reference replay and comparison, outside setup_s"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metric     `json:"end_to_end"`
	PerLayer   []metric     `json:"per_layer"` // Bound is 0 and omitted
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// defaultSeconds is BENCHMARK.json's run_seconds and the suite's
// default length.
const defaultSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest())
}

// reported is the driver-facing form of a metric value.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects the catalogued metrics out of m. Every catalogued
// metric must be present: a missing one is a bug in the benchmark.
func report(catalog []metric, m map[string]float64) (map[string]reported, error) {
	out := make(map[string]reported, len(catalog))
	for _, c := range catalog {
		v, ok := m[c.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", c.Name)
		}
		out[c.Name] = reported{Value: v, Unit: c.Unit}
	}
	return out, nil
}

// printTable writes the catalogued metrics of one workload, by name
// with units.
func printTable(w io.Writer, title string, catalog []metric, m map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, c := range catalog {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", c.Name, m[c.Name], c.Unit, c.what)
	}
}

// printLayers writes the attribution table: rows, unattributed, total.
func printLayers(w io.Writer, name string, m map[string]float64) {
	total := m["trace.display_p50_ms"]
	fmt.Fprintf(w, "%s: where the traced cmd_to_display_p50_ms (%.4f ms) goes\n", name, total)
	for _, row := range layerRows {
		fmt.Fprintf(w, "  %-28s %10.4f ms %5.1f%%  %s\n", row.metric, m[row.metric], 100*ratio(m[row.metric], total), row.what)
	}
	un := m["trace.unattributed_frac"]
	fmt.Fprintf(w, "  %-28s %10.4f ms %5.1f%%  medians do not add; driver bookkeeping\n", "unattributed", un*total, 100*un)
}
