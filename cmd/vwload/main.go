// Command vwload is the multi-workstation load generator: it stands up
// an in-process windtunnel server and drives it with K simulated
// workstations over netsim pipes, each running the hello/frame loop at
// a target frame rate — the scale-out experiment for the encode-once
// fan-out and the shared timestep cache. It reports rounds computed,
// frames encoded vs shipped (the fan-out factor), per-session latency
// percentiles, and cache hit rates. It exits 1 when the run fails:
// a failed setup, or failed frame calls beyond what -maxdropped
// tolerates.
//
// Usage:
//
//	vwload -sessions 64 -frames 100 -fps 10
//	vwload -data data/cyl -sessions 32 -resident=false -diskbw 40 -cachesteps 8
//	vwload -sessions 16 -bw 10 -latency 5ms   # shaped workstation links
//	vwload -sessions 1024 -relays 8 -hops 2   # cluster tier: leaves + mid relay
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// config is what vwload's flags decide: the dataset and server under
// the fleet, and the fleet itself.
type config struct {
	data                     string
	steps                    int
	resident, prefetch, live bool
	diskBW, cacheMB          int64
	cacheN                   int
	budget                   time.Duration
	liveRes, liveWindow      int
	load                     LoadOptions
}

// run parses args, drives the fleet and prints the report to out. Its
// error is the run's verdict; nothing is printed when the run failed
// before the fleet attached.
func run(args []string, out io.Writer) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	return c.run(out)
}

// parseFlags is the one place the fleet's defaults live and its counts
// are checked.
func parseFlags(args []string) (config, error) {
	var c config
	o := &c.load
	fs := flag.NewFlagSet("vwload", flag.ExitOnError)
	fs.StringVar(&c.data, "data", "", "dataset directory from vwgen (empty = generate a synthetic dataset)")
	fs.IntVar(&c.steps, "steps", 8, "synthetic dataset timesteps (when -data is empty)")
	fs.IntVar(&o.Sessions, "sessions", 64, "simulated workstations")
	fs.IntVar(&o.Frames, "frames", 100, "frame exchanges per workstation")
	fs.Float64Var(&o.FrameRate, "fps", 10, "per-workstation target frame rate (0 = unpaced; the paper targets 10)")
	fs.IntVar(&o.Rakes, "rakes", 2, "streamline rakes in the shared scene")
	fs.IntVar(&o.SeedsPerRake, "seeds", 8, "seeds per rake")
	fs.IntVar(&o.ActiveUsers, "active", 1, "workstations that move their hand every frame (forcing re-encodes)")
	fs.BoolVar(&o.Play, "play", true, "run looping playback so timesteps stream through the store")
	fs.BoolVar(&c.resident, "resident", false, "serve the dataset from memory instead of disk")
	fs.Int64Var(&c.diskBW, "diskbw", 0, "simulated disk bandwidth in MB/s when streaming (0 = unthrottled)")
	fs.BoolVar(&c.prefetch, "prefetch", true, "overlap next-timestep loads with computation when streaming")
	fs.IntVar(&c.cacheN, "cachesteps", 4, "shared timestep cache capacity in steps (0 = uncapped on that axis)")
	fs.Int64Var(&c.cacheMB, "cachemb", 0, "shared timestep cache budget in MB (0 = uncapped on that axis)")
	bw := fs.Int64("bw", 0, "per-workstation link bandwidth in MB/s (0 = unconstrained)")
	latency := fs.Duration("latency", 0, "per-workstation link latency per message")
	fs.DurationVar(&c.budget, "budget", 0, "per-frame integration budget for the governor (0 = disabled; vwserver defaults to 100ms)")
	codec := fs.Int("codec", 2, "frame codec each workstation requests: 1 = classic full frames, 2 = delta/quantized")
	fs.IntVar(&o.Relays, "relays", 0, "leaf relay/cache nodes between the fleet and the origin (0 = direct connect)")
	fs.IntVar(&o.RelayHops, "hops", 1, "relay tier depth with -relays: 1 = leaves on the origin, 2 = leaves through one mid relay")
	fs.Float64Var(&o.MaxDroppedFrac, "maxdropped", 0, "tolerated fraction of dropped latency samples before the run fails (0 = any failure fails)")

	fs.BoolVar(&c.live, "live", false, "in-situ mode: drive the fleet against a live solver producer instead of stored timesteps")
	fs.IntVar(&c.liveRes, "liveres", 16, "live solver X resolution")
	fs.IntVar(&c.liveWindow, "livewindow", 16, "live history window in timesteps (0 = keep all)")
	fs.IntVar(&o.SteerEvery, "steerevery", 0, "workstation 0 pushes a steering change every N frames (0 = no steering churn)")
	fs.IntVar(&o.ToolsEvery, "tools", 0, "shared-tool mix: enable isosurface + cutting plane + vortex cores and have workstation 0 nudge them every N frames (0 = no tools)")
	fs.Parse(args)

	switch {
	case *codec < 1 || *codec > 2:
		return c, fmt.Errorf("-codec %d: must be 1 or 2", *codec)
	case o.Sessions < 1:
		return c, fmt.Errorf("-sessions %d: must be at least 1", o.Sessions)
	case o.Frames < 1:
		return c, fmt.Errorf("-frames %d: must be at least 1", o.Frames)
	case o.Rakes < 0:
		return c, fmt.Errorf("-rakes %d: must not be negative", o.Rakes)
	case o.SeedsPerRake < 1:
		return c, fmt.Errorf("-seeds %d: must be at least 1", o.SeedsPerRake)
	case o.ActiveUsers < 0 || o.ActiveUsers > o.Sessions:
		return c, fmt.Errorf("-active %d: must be in [0, -sessions]", o.ActiveUsers)
	case o.RelayHops < 1 || o.RelayHops > 2:
		return c, fmt.Errorf("-hops %d: must be 1 or 2", o.RelayHops)
	}
	o.Codec = uint8(*codec)
	o.Link = netsim.Link{BandwidthBytesPerSec: *bw << 20, Latency: *latency}
	return c, nil
}

func (c config) run(out io.Writer) error {
	var (
		st      store.Store
		srv     *server.Server
		lv      *datasets.Live
		cleanup = func() {}
		err     error
	)
	cfg := server.Config{
		Prefetch:   c.prefetch,
		CacheSteps: c.cacheN,
		CacheBytes: c.cacheMB << 20,
		Budget:     c.budget,
	}
	if c.live {
		lv, err = datasets.NewLive(
			datasets.Spec{NI: 24, NJ: 32, NK: 8, NumSteps: c.steps * c.load.Frames, DT: 0.6},
			datasets.LiveOptions{
				Solver: datasets.SolverOptions{Resolution: c.liveRes, SpinupSteps: 10},
				Window: c.liveWindow,
			})
		if err != nil {
			return err
		}
		st = lv.Ring()
		srv, err = core.NewLive(lv, cfg)
	} else {
		st, cleanup, err = openStore(c.data, c.steps, c.resident, c.diskBW)
		if err != nil {
			return err
		}
		cfg.Store = st
		srv, err = server.New(cfg)
	}
	defer cleanup()
	if err != nil {
		return err
	}
	defer srv.Dlib().Close()

	g := st.Grid()
	mode := storageMode(c.resident)
	if lv != nil {
		mode = "live solver"
	}
	o := c.load
	log.Printf("dataset: %dx%dx%d, %d steps (%s); fleet: %d workstations x %d frames at %g fps",
		g.NI, g.NJ, g.NK, st.NumSteps(), mode, o.Sessions, o.Frames, o.FrameRate)

	rep, err := RunLoad(srv, g, o)
	if rep.Sessions == 0 {
		// The fleet never attached: there is nothing to report.
		return err
	}

	fmt.Fprintln(out, rep)
	delivered, deliveredBytes := rep.Delivered()
	achieved := float64(delivered) / rep.Elapsed.Seconds() / float64(rep.Sessions)
	fmt.Fprintf(out, "per-session rate: %.1f frames/s (target %g)\n", achieved, o.FrameRate)
	fmt.Fprintf(out, "rounds computed=%d encoded=%d reused=%d; delivered %d frames (%.1fx fan-out), %.1f MB, %.0f bytes/frame (codec v%d)\n",
		rep.Rounds, rep.FramesEncoded, rep.FramesReused,
		delivered, rep.FanOut(), float64(deliveredBytes)/(1<<20),
		rep.BytesPerFrame(), o.Codec)
	if rep.DroppedSamples > 0 {
		fmt.Fprintf(out, "dropped %d/%d latency samples (tolerating up to %.1f%%)\n",
			rep.DroppedSamples, o.Sessions*o.Frames, 100*o.MaxDroppedFrac)
	}
	fmt.Fprintf(out, "latency: p50=%v p90=%v p99=%v max=%v mean=%v\n",
		rep.Latency.P50.Round(time.Microsecond), rep.Latency.P90.Round(time.Microsecond),
		rep.Latency.P99.Round(time.Microsecond), rep.Latency.Max.Round(time.Microsecond),
		rep.Latency.Mean.Round(time.Microsecond))
	if c.budget > 0 {
		fmt.Fprintf(out, "governor: budget=%v predicted(avg)=%v shed=%d/%d rounds\n",
			c.budget, avgDur(rep.PredictedTime, rep.FramesEncoded),
			rep.FramesShed, rep.FramesEncoded)
	}
	if rep.ToolsComputed > 0 || rep.ToolsReused > 0 {
		fmt.Fprintf(out, "shared tools: computed=%d reused=%d points=%d\n",
			rep.ToolsComputed, rep.ToolsReused, rep.ToolPoints)
	}
	if rep.HasCache {
		fmt.Fprintf(out, "timestep cache: %s\n", rep.Cache)
	}
	if lv != nil {
		rs, stc := lv.Ring().Stats(), srv.Env().Steer()
		fmt.Fprintf(out, "live producer: produced=%d recycled=%d deferred=%d clamped=%d steer changes=%d (U=%.2f Re=%.0f taper=%.2f)\n",
			rs.Produced, rs.Recycled, rs.Deferred, rs.Clamped, stc.Version,
			stc.Params.InflowU, stc.Params.Reynolds, stc.Params.Taper)
	}
	fmt.Fprintf(out, "pipeline: %s\n", srv.Stats())
	return err
}

// openStore opens or synthesizes the dataset in the requested storage
// regime. The returned cleanup removes any temporary on-disk copy.
func openStore(dir string, steps int, resident bool, diskMBps int64) (store.Store, func(), error) {
	noop := func() {}
	if dir == "" {
		spec := datasets.Spec{NI: 24, NJ: 32, NK: 8, NumSteps: steps, DT: 0.6}
		u, err := datasets.Analytic(spec)
		if err != nil {
			return nil, noop, err
		}
		if resident {
			return store.NewMemory(u), noop, nil
		}
		// Disk regime wants real files: spill the synthetic dataset to
		// a temp dir and stream it back.
		tmp, err := os.MkdirTemp("", "vwload-*")
		if err != nil {
			return nil, noop, err
		}
		cleanup := func() { os.RemoveAll(tmp) }
		dsDir := filepath.Join(tmp, "ds")
		if err := store.WriteDataset(dsDir, u); err != nil {
			cleanup()
			return nil, noop, err
		}
		d, err := store.OpenDisk(dsDir, store.DiskOptions{BandwidthBytesPerSec: diskMBps << 20})
		if err != nil {
			cleanup()
			return nil, noop, err
		}
		return d, cleanup, nil
	}
	disk, err := store.OpenDisk(dir, store.DiskOptions{BandwidthBytesPerSec: diskMBps << 20})
	if err != nil {
		return nil, noop, err
	}
	if !resident {
		return disk, noop, nil
	}
	m, err := store.LoadResident(disk)
	if err != nil {
		return nil, noop, err
	}
	return m, noop, nil
}

// avgDur returns total/n rounded for display, or 0 when n is 0.
func avgDur(total time.Duration, n int64) time.Duration {
	if n == 0 {
		return 0
	}
	return (total / time.Duration(n)).Round(time.Microsecond)
}

func storageMode(resident bool) string {
	if resident {
		return "memory-resident"
	}
	return "disk-streamed"
}
