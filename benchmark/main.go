// Command benchmark measures the distributed windtunnel end to end and
// layer by layer. It stands up the real stack in one process per
// workload — server.New behind dlib, 0-2 relay.New hops, client.New
// workstations that NetStep then RenderFrame — and drives it
// closed-loop and lock-step from a single goroutine, so work per frame,
// round accounting and byte counts repeat exactly and only the clock
// varies. See README.md.
//
// Three ways to run it:
//
//	benchmark                          the suite: all workloads, untraced then traced, tables
//	benchmark -repeat N                calibration: N suite runs, spread per metric
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	                                   one workload, one JSON line (BENCHMARK.json's contract)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// procs pins GOMAXPROCS: the benchmark is sized for two cores, and a
// larger host must not change how the engines fan out.
const procs = 2

// setupRuns is how many times every run sets the workload up, each in
// a fresh process: setup_s is their median.
const setupRuns = 3

// phaseResult is what a child process prints for its parent.
type phaseResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (p *phaseResult) fail(msgs ...string) {
	p.Failed += len(msgs)
	p.Errors = append(p.Errors, msgs...)
}

// merge folds a later phase into p.
func (p *phaseResult) merge(q phaseResult) {
	p.Attempted += q.Attempted
	p.Failed += q.Failed
	p.Errors = append(p.Errors, q.Errors...)
	for k, v := range q.Metrics {
		p.Metrics[k] = v
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	repeat   int
	phase    string // child mode: setup | run | trace
	rounds   int    // child mode
}

func main() {
	runtime.GOMAXPROCS(procs)
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print one JSON line (drag, playback, fleet, heavy)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated poses and commands")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "run length: frame counts scale with it, sized so the reference box measures about this long")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.out, "out", "out", "directory for datasets (removed at exit) and trace-<workload>.jsonl")
	flag.IntVar(&o.repeat, "repeat", 0, "calibration: run the suite this many times on consecutive seeds and print spreads")
	smoke := flag.Bool("smoke", false, "run at 1/50 length")
	manifestOnly := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.StringVar(&o.phase, "phase", "", "internal: child phase")
	flag.IntVar(&o.rounds, "rounds", 0, "internal: child rounds")
	flag.Parse()

	if *manifestOnly {
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke {
		o.seconds /= 50
	}
	var err error
	switch {
	case o.phase != "":
		err = childMain(o)
	case o.workload != "":
		err = driverMain(o)
	case o.repeat > 0:
		err = calibrate(o)
	default:
		err = suiteMain(o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// errIncorrect marks a run that finished but failed verification, a
// validity guard or an operation: results are printed, the exit code
// is non-zero.
var errIncorrect = errors.New("run incorrect: operations failed, outputs mismatched or a validity guard tripped")

// ---- child: one phase of one workload in a fresh process ------------

func childMain(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	var res phaseResult
	switch o.phase {
	case "setup":
		res, err = phaseSetup(w, o)
	case "run":
		res, err = phaseRun(w, o)
	case "trace":
		res, err = phaseTrace(w, o)
	default:
		err = fmt.Errorf("unknown phase %q", o.phase)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// rig is a workload set up and warmed, ready to measure.
type rig struct {
	ds *dataset
	s  *stack
	sc *script
	// setupS is setup_s, host-normalised like every gated timing;
	// setupRawS is what the clock read.
	setupS, setupRawS float64
}

// setUp performs everything setup_s covers — dataset synthesis, disk
// write, topology, handshakes, scene build, warm-up — under the host
// meter.
func setUp(w *workload, o options, tr *tracer) (*rig, error) {
	var g *rig
	wall, quiet, err := meterWhile(func() (err error) {
		g, err = build(w, o, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	g.setupS, g.setupRawS = quiet.Seconds(), wall.Seconds()
	return g, nil
}

func build(w *workload, o options, tr *tracer) (*rig, error) {
	ds, err := makeDataset(w, o.out)
	if err != nil {
		return nil, err
	}
	sc := newScript(w, o.seed, o.rounds)
	if err := sc.checkPoses(); err != nil {
		ds.remove()
		return nil, err
	}
	s, err := buildStack(w, ds, stackOpts{tr: tr})
	if err != nil {
		ds.remove()
		return nil, err
	}
	g := &rig{ds: ds, s: s, sc: sc}
	if err := s.warmUp(sc); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *rig) close() {
	g.s.close()
	g.ds.remove()
}

func phaseSetup(w *workload, o options) (phaseResult, error) {
	g, err := setUp(w, o, nil)
	if err != nil {
		return phaseResult{}, err
	}
	g.close()
	return phaseResult{Metrics: map[string]float64{"setup_s": g.setupS}}, nil
}

// phaseRun is the untraced run: set-up, the measured phase, then —
// outside every end-to-end metric — the dlib probe and verification.
func phaseRun(w *workload, o options) (phaseResult, error) {
	g, err := setUp(w, o, nil)
	if err != nil {
		return phaseResult{}, err
	}
	defer g.close()
	ds, s, sc := g.ds, g.s, g.sc

	r := s.measure(sc)
	res := phaseResult{Attempted: r.frames, Failed: r.failed, Errors: r.errs, Metrics: map[string]float64{
		"setup_s":               g.setupS,
		"host.setup_raw_s":      g.setupRawS,
		"peak_rss_mb":           peakRSSMB(),
		"datasets.synth_s":      ds.synthS,
		"store.write_dataset_s": ds.writeS,
	}}
	s.untracedMetrics(r, res.Metrics)
	res.fail(checkValidity(w, res.Metrics)...)

	if res.Metrics["dlib.rtt_p50_us"], err = s.dlibRTT(); err != nil {
		res.fail(err.Error())
	}

	t0 := time.Now()
	checked, mismatches, err := verify(w, ds, sc)
	res.Metrics["verify_s"] = time.Since(t0).Seconds()
	res.Attempted += checked
	res.fail(mismatches...)
	if err != nil {
		res.fail(err.Error())
	}
	return res, nil
}

// phaseTrace is the traced run at the rounds it is given (a quarter of
// the untraced run's), followed by the kernel replays.
func phaseTrace(w *workload, o options) (phaseResult, error) {
	tr := newTracer()
	g, err := setUp(w, o, tr)
	if err != nil {
		return phaseResult{}, err
	}
	defer g.close()
	ds, s, sc := g.ds, g.s, g.sc

	r := s.measure(sc)
	res := phaseResult{Attempted: r.frames, Failed: r.failed, Errors: r.errs, Metrics: map[string]float64{}}
	tracedMetrics(r, tr, res.Metrics)
	if err := tr.writeJSONL(filepath.Join(o.out, "trace-"+w.name+".jsonl")); err != nil {
		return res, err
	}

	m := res.Metrics
	if m["wire.decode_ns_per_point"], err = s.wireDecode(sc); err != nil {
		res.fail(err.Error())
	}
	if m["integrate.scalar_ns_per_point"], err = s.scalarIntegrate(); err != nil {
		res.fail(err.Error())
	}
	m["compute.speedup_vs_scalar"] = ratio(m["integrate.scalar_ns_per_point"], m["compute.ns_per_point"])

	for _, name := range []string{"isosurf.extract_ms", "isosurf.triangles_per_extract",
		"server.governed_points_per_frame", "server.governed_frame_p50_ms", "server.governed_shed_frac"} {
		m[name] = 0
	}
	if w.name == "heavy" {
		if m["isosurf.extract_ms"], m["isosurf.triangles_per_extract"], err = s.isoExtract(); err != nil {
			res.fail(err.Error())
		}
		pts, p50, shed, err := governedProbe(w, ds, o.seed, o.rounds)
		if err != nil {
			res.fail(err.Error())
		}
		m["server.governed_points_per_frame"], m["server.governed_frame_p50_ms"], m["server.governed_shed_frac"] = pts, p50, shed
	}
	return res, nil
}

// ---- parent: spawn phases, merge, print ------------------------------

// spawn re-executes this binary for one phase, so each gets a fresh
// heap and its own resident high-water mark.
func spawn(o options, phase string, rounds int) (phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return phaseResult{}, err
	}
	cmd := exec.Command(exe,
		"-phase", phase, "-workload", o.workload, "-rounds", strconv.Itoa(rounds),
		"-seed", strconv.FormatInt(o.seed, 10), "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A killed parent must not leave a phase running. The death signal
	// is tied to the spawning thread, so stay on it until the child ends.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return phaseResult{}, fmt.Errorf("%s phase of %s: %w", phase, o.workload, err)
	}
	var res phaseResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return phaseResult{}, fmt.Errorf("%s phase of %s: bad result: %w", phase, o.workload, err)
	}
	return res, nil
}

// measureEndToEnd runs the untraced phase, plus set-up-only processes
// so that setup_s is the median of setupRuns fresh set-ups.
func measureEndToEnd(o options, w *workload) (phaseResult, error) {
	rounds := w.roundsFor(o.seconds)
	setups := []float64{}
	for i := 1; i < setupRuns; i++ {
		res, err := spawn(o, "setup", rounds)
		if err != nil {
			return phaseResult{}, err
		}
		setups = append(setups, res.Metrics["setup_s"])
	}
	res, err := spawn(o, "run", rounds)
	if err != nil {
		return phaseResult{}, err
	}
	res.Metrics["setup_s"] = median(append(setups, res.Metrics["setup_s"]))
	return res, nil
}

// measureLayers adds the traced phase, at a quarter of the length, to
// an untraced result.
func measureLayers(o options, w *workload, res *phaseResult) error {
	rounds := w.roundsFor(o.seconds / 4)
	traced, err := spawn(o, "trace", rounds)
	if err != nil {
		return err
	}
	res.merge(traced)
	m := res.Metrics
	m["trace.overhead_frac"] = ratio(m["trace.display_p50_ms"], m["cmd_to_display_p50_ms"]) - 1
	return nil
}

// driverMain serves BENCHMARK.json's contract: one workload, one JSON
// object as the last line of standard output.
func driverMain(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	catalog := endToEnd
	if o.trace != 0 {
		catalog = perLayer
	}
	res, err := measureEndToEnd(o, w)
	if err != nil {
		return err
	}
	if o.trace != 0 {
		if err := measureLayers(o, w, &res); err != nil {
			return err
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", e)
	}
	metrics, err := report(catalog, res.Metrics)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// suiteRun measures every workload, end to end and by layer.
func suiteRun(o options) (map[string]phaseResult, error) {
	out := make(map[string]phaseResult)
	for _, w := range workloads {
		o.workload = w.name
		res, err := measureEndToEnd(o, w)
		if err != nil {
			return nil, err
		}
		if err := measureLayers(o, w, &res); err != nil {
			return nil, err
		}
		out[w.name] = res
	}
	return out, nil
}

func suiteMain(o options) error {
	results, err := suiteRun(o)
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		res := results[w.name]
		fmt.Printf("== %s: %s\n", w.name, w.why)
		fmt.Printf("operations attempted %d, failed %d (seed %d, %d rounds x %d workstations)\n",
			res.Attempted, res.Failed, o.seed, w.roundsFor(o.seconds), len(w.codecs))
		for _, e := range res.Errors {
			fmt.Printf("  FAILED: %s\n", e)
		}
		printTable(os.Stdout, "end to end", endToEnd, res.Metrics)
		printLayers(os.Stdout, w.name, res.Metrics)
		printTable(os.Stdout, "per layer", perLayer, res.Metrics)
		fmt.Println()
		failed += res.Failed
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// calibrate runs the suite o.repeat times on consecutive seeds and
// prints, per workload and end-to-end metric, the median, quartiles
// and the inter-quartile spread as a share of the metric's bound — the
// numbers BENCHMARK.json's bounds are checked against.
func calibrate(o options) error {
	series := make(map[string]map[string][]float64) // workload -> metric -> values
	failed := 0
	for k := 0; k < o.repeat; k++ {
		run := o
		run.seed = o.seed + int64(k)
		results, err := suiteRun(run)
		if err != nil {
			return err
		}
		for name, res := range results {
			if series[name] == nil {
				series[name] = make(map[string][]float64)
			}
			for metric, v := range res.Metrics {
				series[name][metric] = append(series[name][metric], v)
			}
			failed += res.Failed
		}
		fmt.Fprintf(os.Stderr, "benchmark: calibration run %d of %d done\n", k+1, o.repeat)
	}
	fmt.Printf("%-9s %-24s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "/bound")
	for _, w := range workloads {
		for _, c := range endToEnd {
			xs := series[w.name][c.Name]
			q1, q2, q3 := quartiles(xs)
			fmt.Printf("%-9s %-24s %12.4f %12.4f %12.4f %7.2f%% %8.2f\n",
				w.name, c.Name, q1, q2, q3, 100*spread(xs), spread(xs)/c.Bound)
		}
	}
	fmt.Println("\nper-layer medians")
	for _, w := range workloads {
		for _, c := range perLayer {
			xs := series[w.name][c.Name]
			fmt.Printf("%-9s %-36s %14.4f %-6s spread %6.2f%%\n", w.name, c.Name, median(xs), c.Unit, 100*spread(xs))
		}
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}
