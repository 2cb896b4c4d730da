// Command vwserver runs the distributed virtual windtunnel's remote
// host — the Convex's role: it owns a dataset (resident in memory or
// streamed from disk), interprets user commands from any number of
// workstations over dlib, computes the visualization geometry, and
// ships it back (figure 8).
//
// Usage:
//
//	vwserver -data data/cyl -listen :9040
//	vwserver -data data/cyl -resident=false -diskbw 30 -prefetch
//	vwserver -data data/cyl -debug localhost:6060   # expvar + pprof
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwserver: ")

	var (
		data     = flag.String("data", "", "dataset directory from vwgen (required)")
		listen   = flag.String("listen", "127.0.0.1:9040", "listen address")
		resident = flag.Bool("resident", true, "load the whole dataset into memory (the 1 GB Convex mode); false streams from disk")
		diskBW   = flag.Int64("diskbw", 0, "simulated disk bandwidth in MB/s when streaming (0 = unthrottled; the Convex measured 30-50)")
		prefetch = flag.Bool("prefetch", true, "read the timesteps the play touches next in the background while rounds compute, when streaming")
		workers  = flag.Int("workers", 0, "computation worker count: parallel engine, round pool and live solver (0 = GOMAXPROCS)")
		maxSeeds = flag.Int("maxseeds", 0, "per-rake seed count cap enforced on client commands (0 = default 4096)")
		cacheN   = flag.Int("cachesteps", 0, "timesteps kept resident when streaming, the particle-path window included (0 with -cachemb 0 = that window only; the window is kept even over this)")
		cacheMB  = flag.Int64("cachemb", 0, "resident timestep budget in MB when streaming, the particle-path window included (0 with -cachesteps 0 = that window only; the window is kept even over this)")
		budget   = flag.Duration("budget", 100*time.Millisecond, "per-frame integration budget; the governor sheds load to hold it (0 = disabled, frames run unbounded)")
		codec    = flag.Int("codec", 2, "highest frame codec to negotiate: 1 = classic full frames only, 2 = allow delta/quantized (v1 clients still served byte-for-byte)")
		debug    = flag.String("debug", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. localhost:6060 (empty = disabled)")

		isoLevel  = flag.Float64("iso", 0, "seed the shared isosurface tool enabled at this speed iso-level (0 = tool subsystem untouched until a client enables it)")
		planeAxis = flag.Int("planeaxis", 0, "slicing axis for -planefrac: 0=I 1=J 2=K")
		planeFrac = flag.Float64("planefrac", -1, "seed the shared cutting plane enabled at this fractional position along -planeaxis (negative = off)")
		vortexQ   = flag.Float64("vortex", 0, "seed the shared vortex-core extractor enabled at this Q-criterion threshold (0 = off)")

		live       = flag.Bool("live", false, "in-situ mode: run the Navier-Stokes solver as a live timestep producer instead of serving a -data directory; workstations can steer inlet velocity / Reynolds / taper")
		liveRes    = flag.Int("liveres", 48, "live solver X resolution (Y and Z scale proportionally)")
		liveSteps  = flag.Int("livesteps", 1024, "live session horizon in produced timesteps")
		liveWindow = flag.Int("livewindow", 64, "live history window: timesteps kept behind the head for particle paths/streaklines (0 = keep all)")
		liveGrid   = flag.Int("livegrid", 64, "live sampling grid NI (NJ = NI, NK = NI/2)")
		liveDT     = flag.Float64("livedt", 0.2, "live snapshot interval in solver time units")
	)
	flag.Parse()
	if *data == "" && !*live {
		flag.Usage()
		os.Exit(2)
	}
	if *codec < 1 || *codec > 2 {
		log.Fatalf("-codec %d: must be 1 or 2", *codec)
	}
	// The shared-tool seeds; server.New holds each to the bounds a tool
	// command is held to.
	var tools [env.NumTools]env.ToolParams
	if *isoLevel > 0 {
		tools[env.ToolIso-1] = env.ToolParams{Enabled: true, Value: float32(*isoLevel)}
	}
	if *planeFrac >= 0 {
		// Checked here, before the uint8 conversion would wrap it.
		if *planeAxis < 0 || *planeAxis > 2 {
			log.Fatalf("-planeaxis %d: must be 0, 1, or 2", *planeAxis)
		}
		tools[env.ToolPlane-1] = env.ToolParams{Enabled: true, Axis: uint8(*planeAxis), Value: float32(*planeFrac)}
	}
	if *vortexQ != 0 {
		tools[env.ToolVortex-1] = env.ToolParams{Enabled: true, Value: float32(*vortexQ)}
	}

	// One configuration for both modes; the cache settings matter only
	// to a dataset read from disk (a live ring is its own resident set).
	cfg := server.Config{
		Engine:          compute.Parallel{NumWorkers: *workers},
		MaxSeedsPerRake: *maxSeeds,
		Prefetch:        *prefetch,
		CacheSteps:      *cacheN,
		CacheBytes:      *cacheMB << 20,
		Budget:          *budget,
		MaxCodec:        *codec,
		Tools:           tools,
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	var (
		srv  *server.Server
		ring *store.Ring // the live solver's, in in-situ mode
	)
	if *live {
		log.Printf("spinning up live solver (resolution %d)", *liveRes)
		lv, err := datasets.NewLive(datasets.Spec{
			NI: *liveGrid, NJ: *liveGrid, NK: *liveGrid / 2,
			NumSteps: *liveSteps, DT: float32(*liveDT),
		}, datasets.LiveOptions{
			Solver: datasets.SolverOptions{Resolution: *liveRes, Workers: *workers},
			Window: *liveWindow,
		})
		if err != nil {
			log.Fatal(err)
		}
		ring = lv.Ring()
		srv, err = core.ServeLive(ln, lv, cfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving live solver on %s (engine %s, window %d, horizon %d)",
			ln.Addr(), cfg.Engine.Name(), *liveWindow, *liveSteps)
	} else {
		disk, err := store.OpenDisk(*data, store.DiskOptions{BandwidthBytesPerSec: *diskBW << 20})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = disk
		if *resident {
			log.Printf("loading %d timesteps into memory", disk.NumSteps())
			if cfg.Store, err = store.LoadResident(disk); err != nil {
				log.Fatal(err)
			}
		}
		srv, err = core.Serve(ln, cfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving %d-step dataset on %s (engine %s, resident=%v)",
			cfg.Store.NumSteps(), ln.Addr(), cfg.Engine.Name(), *resident)
	}

	if *debug != "" {
		obs.PublishFunc("vwserver.frames", func() any { return srv.Stats() })
		if _, ok := srv.CacheStats(); ok {
			obs.PublishFunc("vwserver.cache", func() any {
				cs, _ := srv.CacheStats()
				return cs
			})
		}
		if ring != nil {
			obs.PublishFunc("vwserver.live", func() any {
				rs := ring.Stats()
				return map[string]int64{
					"Produced": rs.Produced,
					"Recycled": rs.Recycled,
					"Deferred": rs.Deferred,
					"Clamped":  rs.Clamped,
					"Steered":  int64(srv.Env().Steer().Version),
				}
			})
		}
		dbg, err := obs.ServeDebug(*debug)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/)", dbg.Addr())
	}

	// Periodic stats until interrupted.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s := srv.Stats()
			if s.Frames == 0 {
				continue
			}
			log.Printf("%s sessions=%d", s, srv.Dlib().NumSessions())
			if cs, ok := srv.CacheStats(); ok {
				// wanted= is the §5.1 window, pinned over -cachesteps /
				// -cachemb: why resident= (and RSS) can exceed them.
				log.Printf("  cache: %s", cs)
			}
			if ring != nil {
				rs, st := ring.Stats(), srv.Env().Steer()
				log.Printf("  live: produced=%d recycled=%d deferred=%d clamped=%d steer=v%d(U=%.2f Re=%.0f taper=%.2f)",
					rs.Produced, rs.Recycled, rs.Deferred, rs.Clamped,
					st.Version, st.Params.InflowU, st.Params.Reynolds, st.Params.Taper)
			}
			procs := srv.Dlib().ProcStats()
			for _, proc := range srv.Dlib().ProcNames() {
				ps := procs[proc]
				log.Printf("  %-12s calls=%d mean=%v max=%v out=%.1fMB errs=%d",
					proc, ps.Calls, ps.Mean().Round(time.Microsecond),
					ps.MaxService.Round(time.Microsecond),
					float64(ps.BytesOut)/(1<<20), ps.Errors)
			}
		case <-stop:
			log.Printf("shutting down")
			srv.Dlib().Close()
			return
		}
	}
}
