package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/vmath"
	"repro/internal/wire"
)

func TestBlockMedianEstimator(t *testing.T) {
	// 20 blocks of 10 samples at 1.0; a disturbance multiplies whole
	// blocks by 10. It must cover half the run to move the estimate.
	build := func(ruined int) []float64 {
		xs := make([]float64, 0, 200)
		for b := 0; b < numBlocks; b++ {
			v := 1.0
			if b < ruined {
				v = 10
			}
			for i := 0; i < 10; i++ {
				xs = append(xs, v)
			}
		}
		return xs
	}
	if got := blockP50(build(10), numBlocks); got != 1 {
		t.Errorf("10 of 20 blocks ruined: estimate %v, want 1", got)
	}
	if got := blockP50(build(11), numBlocks); got != 10 {
		t.Errorf("11 of 20 blocks ruined: estimate %v, want 10", got)
	}
	// A few fast blocks must not set the metric either.
	xs := build(0)
	for i := 0; i < 90; i++ {
		xs[i] = 0.1
	}
	if got := blockP50(xs, numBlocks); got != 1 {
		t.Errorf("9 fast blocks: estimate %v, want 1", got)
	}
	// The block named is one whose statistic is the (lower) median.
	if got := medianBlock([]float64{5, 9, 7, 8}); got != 2 {
		t.Errorf("medianBlock = %d, want 2 (the 7)", got)
	}
	// Within a block the statistic is a plain median, and with fewer
	// samples than blocks there is a single block.
	if got := blockP50([]float64{3, 1, 2}, numBlocks); got != 2 {
		t.Errorf("fewer samples than blocks: got %v, want the median 2", got)
	}
	if got := blockP50(nil, numBlocks); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestHostMeterSlowdowns(t *testing.T) {
	// 40 sample points: the host runs at nominal speed, then half speed.
	var h hostMeter
	for i := 0; i < 40; i++ {
		ns := float64(refNominalNs)
		if i >= 20 {
			ns *= 2
		}
		h.ns = append(h.ns, ns)
	}
	slow := h.slowdowns()
	if slow[0] != 1 || slow[5] != 1 || slow[39] != 2 || slow[30] != 2 {
		t.Errorf("away from the step: slowdowns %v %v %v %v, want 1 1 2 2", slow[0], slow[5], slow[30], slow[39])
	}
	// At the step the window holds 8 nominal and 9 slow samples.
	if want := (8.0 + 2*9) / 17; math.Abs(slow[20]-want) > 1e-12 {
		t.Errorf("at the step: slowdown %v, want %v", slow[20], want)
	}
	// A run on a host twice as slow reads the same after normalising.
	r := &run{display: []float64{4, 4, 8, 8}, round: []int{0, 1, 38, 39}, slow: slow}
	for k, v := range r.normal(r.display) {
		if v != 4 {
			t.Errorf("normalised frame %d = %v, want 4", k, v)
		}
	}
	// The kernel itself: it runs, takes time and leaves a sample.
	var live hostMeter
	live.sample()
	if len(live.ns) != 1 || live.ns[0] <= 0 || live.spent <= 0 {
		t.Errorf("sample() left %v, spent %v", live.ns, live.spent)
	}
	// The concurrent meter: quiet-equivalent time is wall time over the
	// slowdown it saw, so the two agree to within the kernel's own range
	// (0.5x to 4x nominal covers any host this has run on).
	wall, quiet, err := meterWhile(func() error { time.Sleep(30 * time.Millisecond); return nil })
	if err != nil || wall < 30*time.Millisecond || quiet < wall/4 || quiet > 2*wall {
		t.Errorf("meterWhile: wall %v, quiet %v, err %v", wall, quiet, err)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	frame := []span{
		{Name: "root", Start: 0, End: 100},
		{Name: "a", Parent: "root", Start: 10, End: 30},
		{Name: "a", Parent: "root", Start: 20, End: 50}, // overlaps the first: counted once
		{Name: "b", Parent: "root", Start: 60, End: 70},
		{Name: "leaf", Parent: "b", Start: 62, End: 66},
		{Name: "late", Parent: "b", Start: 68, End: 90}, // sticks out of its parent: clipped
	}
	self := selfTimes(frame)
	want := map[string]int64{
		"root": 100 - 40 - 10, // [10,50] and [60,70]
		"a":    20 + 30,       // two spans, no children
		"b":    10 - 4 - 2,    // leaf, and the part of late inside b
		"leaf": 4,
		"late": 22,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if got := cover(0, 10, [][2]int64{{8, 20}, {-5, 2}, {1, 3}}); got != 3+2 {
		t.Errorf("cover = %d, want 5", got)
	}
}

func TestRunSizing(t *testing.T) {
	for _, c := range []struct {
		name           string
		seconds        float64
		rounds, blocks int
	}{
		{"drag", 10, 3900, 20}, {"drag", 2.5, 931, 19}, {"drag", 0.01, 4, 4},
		{"playback", 10, 1240, 20}, {"playback", 2.5, 310, 5}, {"playback", 0.2, 62, 1},
		// Past numBlocks periods a block is several whole periods.
		{"playback", 12.5, 1488, 12}, {"playback", 20, 2480, 20},
		{"fleet", 10, 2400, 20},
		{"heavy", 10, 276, 12}, {"heavy", 2.5, 69, 3}, {"heavy", 20, 506, 11},
	} {
		w, _ := findWorkload(c.name)
		rounds := w.roundsFor(c.seconds)
		if rounds != c.rounds || w.blocksFor(rounds) != c.blocks {
			t.Errorf("%s at %v s: %d rounds in %d blocks, want %d in %d",
				c.name, c.seconds, rounds, w.blocksFor(rounds), c.rounds, c.blocks)
		}
		if block := rounds / w.blocksFor(rounds); block*w.blocksFor(rounds) != rounds || block%max(w.period, 1) != 0 {
			t.Errorf("%s at %v s: %d rounds do not split into blocks of whole periods", c.name, c.seconds, rounds)
		}
	}
}

func TestScriptsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		rounds := w.roundsFor(1)
		a, b, c := newScript(w, 7, rounds), newScript(w, 7, rounds), newScript(w, 8, rounds)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: same seed gave different command bytes", w.name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: different seeds gave identical command bytes", w.name)
		}
		if err := a.checkPoses(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if got := len(a.in[0]); got != a.warm+rounds {
			t.Errorf("%s: %d inputs, want %d", w.name, got, a.warm+rounds)
		}
	}
}

func TestPoseHygieneCatchesGlyphAtEye(t *testing.T) {
	w, _ := findWorkload("fleet")
	sc := newScript(w, 1, numBlocks)
	sc.in[1][3].pose.Hand = eyes[0].Add(vmath.V3(0.5, 0, 0))
	if err := sc.checkPoses(); err == nil {
		t.Error("a hand half a unit from another user's eye passed the pose check")
	}
}

func TestVerifyWindowReachesASeek(t *testing.T) {
	// Verification must compare measured rounds, not only warm-up, and on
	// playback the seek and cold-load path the workload exists for.
	for _, seconds := range []float64{defaultSeconds, defaultSeconds / 50.0} {
		for _, w := range workloads {
			sc := newScript(w, 1, w.roundsFor(seconds))
			from, to := verifyWindow(sc)
			if from >= 0 || to <= 0 || from < -sc.warm || to > sc.rounds {
				t.Errorf("%s at %v s: window [%d, %d) does not straddle round 0 inside the script", w.name, seconds, from, to)
			}
			if w.name != "playback" {
				continue
			}
			seeks := 0
			for i := from; i < to; i++ {
				for _, c := range sc.at(0, i).cmds {
					if c.Kind == wire.CmdSeek {
						seeks++
					}
				}
			}
			if seeks == 0 {
				t.Errorf("playback at %v s: no seek in verified rounds [%d, %d)", seconds, from, to)
			}
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(want.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(g)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}

	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, wl := range m.Workloads {
		check(wl.Name, "")
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters", wl.Name, len(wl.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestSmoke runs all four workloads at 1/50 length — set-up, measured
// phase, validity guards, verification against the reference server —
// and asserts the count identities the workloads are built on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the whole stack four times")
	}
	out := t.TempDir()
	for _, w := range workloads {
		o := options{workload: w.name, seed: 1, rounds: w.roundsFor(defaultSeconds / 50.0), out: out}
		res, err := phaseRun(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		m := res.Metrics
		if _, err := report(endToEnd, m); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, e := range endToEnd {
			if m[e.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, e.Name, m[e.Name])
			}
		}
		wantFrames := o.rounds * len(w.codecs)
		if res.Attempted < wantFrames {
			t.Errorf("%s: attempted %d, want at least the %d measured frames", w.name, res.Attempted, wantFrames)
		}
		eq := func(name string, want float64) {
			if m[name] != want {
				t.Errorf("%s: %s = %v, want %v", w.name, name, m[name], want)
			}
		}
		eq("server.shed_frac", 0)
		switch w.name {
		case "drag":
			eq("server.rounds_per_frame", 1)
			eq("server.rake_memo_hit_frac", 7.0/8)
			eq("wire.v2_ref_frac", 7.0/8)
		case "playback":
			eq("server.rake_memo_hit_frac", 0)
			if m["store.cache_misses"] <= 0 || m["store.disk_loads_per_frame"] <= 0 {
				t.Errorf("playback never reached the disk: %v misses, %v loads/frame",
					m["store.cache_misses"], m["store.disk_loads_per_frame"])
			}
		case "fleet":
			eq("server.rounds_per_frame", 0.5)
			eq("server.encodes_per_round", 1)
			eq("relay.hit_rate", 0.5)
			eq("relay.amplification", 2)
			eq("relay.hangups", 0)
		case "heavy":
			eq("server.tools_computed_per_frame", 1)
			eq("server.rake_memo_hit_frac", 0)
		}
	}
}

// TestSmokeTrace runs the traced phase on the two workloads that use
// every decorator between them (fleet: four wrapped hops; playback:
// the disk) and checks the attribution adds up.
func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the whole stack")
	}
	out := t.TempDir()
	for _, name := range []string{"fleet", "playback"} {
		w, _ := findWorkload(name)
		o := options{workload: name, seed: 1, rounds: w.roundsFor(defaultSeconds / 50.0), out: out}
		res, err := phaseTrace(w, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: failures: %v", name, res.Errors)
		}
		m := res.Metrics
		if un := m["trace.unattributed_frac"]; math.Abs(un) > 0.25 {
			t.Errorf("%s: unattributed %.3f of the traced display p50", name, un)
		}
		// Frame by frame the rows are the frame: nothing double-counted,
		// nothing dropped.
		if e := m["trace.frame_sum_err_frac"]; e > 1e-6 {
			t.Errorf("%s: a frame's rows miss its duration by %.2g of it", name, e)
		}
		if fi, err := os.Stat(filepath.Join(out, "trace-"+name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace file written: %v", name, err)
		}
		switch name {
		case "fleet":
			for _, k := range []string{"relay.leaf_self_p50_ms", "relay.mid_self_p50_ms", "server.handler_p50_ms", "dlib.hops_self_p50_ms"} {
				if m[k] <= 0 {
					t.Errorf("fleet: %s = %v, want > 0", k, m[k])
				}
			}
		case "playback":
			if m["store.bg_load_ms_per_frame"] <= 0 || m["compute.calls_per_round"] != 6 {
				t.Errorf("playback: bg loads %v ms/frame, %v engine calls/round (want > 0 and 6)",
					m["store.bg_load_ms_per_frame"], m["compute.calls_per_round"])
			}
		}
	}
}
