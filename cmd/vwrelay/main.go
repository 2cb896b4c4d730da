// Command vwrelay runs a windtunnel cluster-tier node: a session
// router + frame relay/cache between workstations and one or more
// vwserver compute hosts (or further vwrelay nodes — the protocol
// chains). Each workstation session is pinned to one upstream, so
// identity and FCFS rake locks behave exactly as on a direct
// connection; frame content crosses the upstream link once per round
// per relay and is re-fanned locally, byte-identical per (client,
// round) for both codecs. A node forwards what it does not parse: it
// skims each round's frame once for the header, user, rake and tool
// state and never decodes a point.
//
// Usage:
//
//	vwrelay -listen :9041 -upstream host1:9040,host2:9040
//	vwrelay -listen :9042 -upstream relayhost:9041   # chained tier
//	vwrelay -listen :9041 -upstream :9040 -debug localhost:6061
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/dlib"
	"repro/internal/obs"
	"repro/internal/relay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwrelay: ")

	var (
		listen   = flag.String("listen", "127.0.0.1:9041", "listen address for workstations (and chained relays)")
		upstream = flag.String("upstream", "", "comma-separated upstream vwserver/vwrelay addresses; sessions are pinned round-robin (required)")
		debug    = flag.String("debug", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address (empty = disabled)")
	)
	flag.Parse()
	if *upstream == "" {
		flag.Usage()
		os.Exit(2)
	}
	var dials []dlib.DialFunc
	for _, addr := range strings.Split(*upstream, ",") {
		addr := strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		dials = append(dials, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	}

	r, err := relay.New(relay.Config{Upstreams: dials})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("relaying %s on %s (%d upstreams)", *upstream, ln.Addr(), len(dials))

	if *debug != "" {
		obs.PublishFunc("vwrelay.stats", func() any { return r.Stats() })
		dbg, err := obs.ServeDebug(*debug)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/)", dbg.Addr())
	}

	// Reap ghost sessions as vwserver does, so a partitioned workstation
	// below this node lets go of its origin-side locks.
	d := r.Dlib()
	d.IdleTimeout, d.WriteTimeout = dlib.DeployedIdleTimeout, dlib.DeployedWriteTimeout
	go func() {
		if err := d.Serve(ln); err != nil {
			log.Printf("serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s := r.Stats()
			if s.DownFrames == 0 {
				continue
			}
			log.Printf("sessions=%d down_frames=%d down=%.1fMB up_fulls=%d up_markers=%d hit=%.1f%% up=%.1fMB hangups=%d",
				s.Sessions, s.DownFrames, float64(s.DownBytes)/(1<<20),
				s.UpFulls, s.UpMarkers, 100*s.HitRate(),
				float64(s.UpBytes)/(1<<20), s.Hangups)
		case <-stop:
			log.Printf("shutting down")
			r.Dlib().Close()
			r.Close()
			return
		}
	}
}
