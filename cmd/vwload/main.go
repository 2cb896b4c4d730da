// Command vwload is the multi-workstation load generator: it stands up
// an in-process windtunnel server and drives it with K simulated
// workstations over netsim pipes, each running the hello/frame loop at
// a target frame rate — the scale-out experiment for the encode-once
// fan-out and the shared timestep cache. It reports rounds computed,
// frames encoded vs shipped (the fan-out factor), per-session latency
// percentiles, and cache hit rates.
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
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datasets"
	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwload: ")

	var (
		data     = flag.String("data", "", "dataset directory from vwgen (empty = generate a synthetic dataset)")
		steps    = flag.Int("steps", 8, "synthetic dataset timesteps (when -data is empty)")
		sessions = flag.Int("sessions", 64, "simulated workstations")
		frames   = flag.Int("frames", 100, "frame exchanges per workstation")
		fps      = flag.Float64("fps", 10, "per-workstation target frame rate (0 = unpaced; the paper targets 10)")
		rakes    = flag.Int("rakes", 2, "streamline rakes in the shared scene")
		seeds    = flag.Int("seeds", 8, "seeds per rake")
		active   = flag.Int("active", 1, "workstations that move their hand every frame (forcing re-encodes)")
		play     = flag.Bool("play", true, "run looping playback so timesteps stream through the store")
		resident = flag.Bool("resident", false, "serve the dataset from memory instead of disk")
		diskBW   = flag.Int64("diskbw", 0, "simulated disk bandwidth in MB/s when streaming (0 = unthrottled)")
		prefetch = flag.Bool("prefetch", true, "overlap next-timestep loads with computation when streaming")
		cacheN   = flag.Int("cachesteps", 4, "shared timestep cache capacity in steps (0 = uncapped on that axis)")
		cacheMB  = flag.Int64("cachemb", 0, "shared timestep cache budget in MB (0 = uncapped on that axis)")
		bw       = flag.Int64("bw", 0, "per-workstation link bandwidth in MB/s (0 = unconstrained)")
		latency  = flag.Duration("latency", 0, "per-workstation link latency per message")
		budget   = flag.Duration("budget", 0, "per-frame integration budget for the governor (0 = disabled; vwserver defaults to 100ms)")
		codec    = flag.Int("codec", 2, "frame codec each workstation requests: 1 = classic full frames, 2 = delta/quantized")
		relays   = flag.Int("relays", 0, "leaf relay/cache nodes between the fleet and the origin (0 = direct connect)")
		hops     = flag.Int("hops", 1, "relay tier depth with -relays: 1 = leaves on the origin, 2 = leaves through one mid relay")
		maxDrop  = flag.Float64("maxdropped", 0, "tolerated fraction of dropped latency samples before the run fails (0 = any failure fails)")

		live       = flag.Bool("live", false, "in-situ mode: drive the fleet against a live solver producer instead of stored timesteps")
		liveRes    = flag.Int("liveres", 16, "live solver X resolution")
		liveWindow = flag.Int("livewindow", 16, "live history window in timesteps (0 = keep all)")
		steerEvery = flag.Int("steerevery", 0, "workstation 0 pushes a steering change every N frames (0 = no steering churn)")
		toolsEvery = flag.Int("tools", 0, "shared-tool mix: enable isosurface + cutting plane + vortex cores and have workstation 0 nudge them every N frames (0 = no tools)")
	)
	flag.Parse()
	if *codec < 1 || *codec > 2 {
		log.Fatalf("-codec %d: must be 1 or 2", *codec)
	}

	var (
		st      store.Store
		lv      *datasets.Live
		cleanup = func() {}
		err     error
	)
	if *live {
		lv, err = datasets.NewLive(
			datasets.Spec{NI: 24, NJ: 32, NK: 8, NumSteps: *steps * *frames, DT: 0.6},
			datasets.LiveOptions{
				Solver: datasets.SolverOptions{Resolution: *liveRes, SpinupSteps: 10},
				Window: *liveWindow,
			})
		if err != nil {
			log.Fatal(err)
		}
		st = lv.Ring()
	} else {
		st, cleanup, err = openStore(*data, *steps, *resident, *diskBW)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer cleanup()

	def := datasets.DefaultSteer()
	srv, err := server.New(server.Config{
		Store:      st,
		Prefetch:   !*resident && *prefetch && !*live,
		CacheSteps: *cacheN,
		CacheBytes: *cacheMB << 20,
		Budget:     *budget,
		Steer:      env.SteerParams{InflowU: def.InflowU, Reynolds: def.Reynolds, Taper: def.Taper},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Dlib().Close()
	if lv != nil {
		e := srv.Env()
		lv.SetSteerSource(func() (datasets.Steering, uint64) {
			s := e.Steer()
			return datasets.Steering{
				InflowU:  s.Params.InflowU,
				Reynolds: s.Params.Reynolds,
				Taper:    s.Params.Taper,
			}, s.Version
		})
	}

	g := st.Grid()
	mode := storageMode(*resident)
	if lv != nil {
		mode = "live solver"
	}
	log.Printf("dataset: %dx%dx%d, %d steps (%s); fleet: %d workstations x %d frames at %g fps",
		g.NI, g.NJ, g.NK, st.NumSteps(), mode, *sessions, *frames, *fps)

	rep, err := server.RunLoad(srv, server.LoadOptions{
		Sessions:       *sessions,
		Frames:         *frames,
		FrameRate:      *fps,
		Rakes:          *rakes,
		SeedsPerRake:   *seeds,
		ActiveUsers:    *active,
		Play:           *play,
		Codec:          uint8(*codec),
		Relays:         *relays,
		RelayHops:      *hops,
		MaxDroppedFrac: *maxDrop,
		SteerEvery:     *steerEvery,
		ToolsEvery:     *toolsEvery,
		Link: netsim.Link{
			BandwidthBytesPerSec: *bw << 20,
			Latency:              *latency,
		},
	})
	if err != nil {
		log.Printf("run error: %v", err)
	}

	fmt.Println(rep)
	delivered, deliveredBytes := rep.Delivered()
	achieved := float64(delivered) / rep.Elapsed.Seconds() / float64(rep.Sessions)
	fmt.Printf("per-session rate: %.1f frames/s (target %g)\n", achieved, *fps)
	fmt.Printf("rounds computed=%d encoded=%d reused=%d; delivered %d frames (%.1fx fan-out), %.1f MB, %.0f bytes/frame (codec v%d)\n",
		rep.Rounds, rep.FramesEncoded, rep.FramesReused,
		delivered, rep.FanOut(), float64(deliveredBytes)/(1<<20),
		rep.BytesPerFrame(), *codec)
	if rep.DroppedSamples > 0 {
		fmt.Printf("dropped %d/%d latency samples (tolerating up to %.1f%%)\n",
			rep.DroppedSamples, *sessions**frames, 100**maxDrop)
	}
	fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v mean=%v\n",
		rep.Latency.P50.Round(time.Microsecond), rep.Latency.P90.Round(time.Microsecond),
		rep.Latency.P99.Round(time.Microsecond), rep.Latency.Max.Round(time.Microsecond),
		rep.Latency.Mean.Round(time.Microsecond))
	if *budget > 0 {
		fmt.Printf("governor: budget=%v predicted(avg)=%v shed=%d/%d rounds\n",
			*budget, avgDur(rep.PredictedTime, rep.FramesEncoded),
			rep.FramesShed, rep.FramesEncoded)
	}
	if rep.ToolsComputed > 0 || rep.ToolsReused > 0 {
		fmt.Printf("shared tools: computed=%d reused=%d points=%d\n",
			rep.ToolsComputed, rep.ToolsReused, rep.ToolPoints)
	}
	if rep.HasCache {
		fmt.Printf("timestep cache: %s\n", rep.Cache)
	}
	if rs, ok := srv.LiveStats(); ok {
		stc := srv.Env().Steer()
		fmt.Printf("live producer: produced=%d recycled=%d deferred=%d clamped=%d liveclamps=%d steer changes=%d (U=%.2f Re=%.0f taper=%.2f)\n",
			rs.Produced, rs.Recycled, rs.Deferred, rs.Clamped,
			srv.Stats().LiveClamps, stc.Version,
			stc.Params.InflowU, stc.Params.Reynolds, stc.Params.Taper)
	}
	fmt.Printf("pipeline: %s\n", srv.Stats())
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// openStore opens or synthesizes the dataset in the requested storage
// regime. The returned cleanup removes any temporary on-disk copy.
func openStore(dir string, steps int, resident bool, diskMBps int64) (store.Store, func(), error) {
	noop := func() {}
	if dir == "" {
		spec := datasets.Spec{NI: 24, NJ: 32, NK: 8, NumSteps: steps, DT: 0.6}
		phys, err := datasets.AnalyticPhysical(spec)
		if err != nil {
			return nil, noop, err
		}
		u, err := phys.ToGridCoords()
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
	stepsData := make([]*field.Field, disk.NumSteps())
	for t := range stepsData {
		if stepsData[t], err = disk.LoadStep(t); err != nil {
			return nil, noop, err
		}
	}
	u, err := field.NewUnsteady(disk.Grid(), stepsData, disk.DT())
	if err != nil {
		return nil, noop, err
	}
	return store.NewMemory(u), noop, nil
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
