// Command vwclient is a headless workstation: it connects to a
// vwserver, drives a scripted user through the virtual environment
// (head motion, rake grabs via glove gestures), and reports the
// frame-budget statistics of §1.2. Optionally it dumps anaglyph stereo
// frames as PPM images.
//
// Usage:
//
//	vwclient -addr 127.0.0.1:9040 -frames 100 -rake -dump frames/
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/vmath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwclient: ")

	var (
		addr   = flag.String("addr", "127.0.0.1:9040", "server address")
		frames = flag.Int("frames", 50, "number of interaction frames to run")
		rake   = flag.Bool("rake", true, "create a streamline rake in the wake")
		smoke  = flag.Bool("smoke", false, "create a streakline (smoke) rake too")
		play   = flag.Float64("play", 1, "playback speed in timesteps/frame (0 = paused)")
		dump   = flag.String("dump", "", "directory to write every 10th frame as PPM")
		bwMBs  = flag.Int64("bw", 0, "simulate a link of this many MB/s (0 = none)")
		script = flag.String("script", "", "console command script to run before the frames (see internal/client.ParseScript)")
		codec  = flag.Int("codec", 2, "frame codec to request: 1 = classic full frames, 2 = delta/quantized (falls back to 1 against old servers)")
	)
	flag.Parse()
	if *codec < 1 || *codec > 2 {
		log.Fatalf("-codec %d: must be 1 or 2", *codec)
	}
	opts := core.Options{Codec: uint8(*codec)}

	var sess *core.Session
	var err error
	if *bwMBs > 0 {
		raw, derr := net.Dial("tcp", *addr)
		if derr != nil {
			log.Fatal(derr)
		}
		link := netsim.Link{BandwidthBytesPerSec: *bwMBs << 20}.Wrap(raw)
		sess, err = core.Connect("", link, opts)
	} else {
		sess, err = core.Connect(*addr, nil, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	info := sess.WS.Info()
	log.Printf("dataset: %dx%dx%d grid, %d timesteps, bounds %v..%v (codec v%d)",
		info.NI, info.NJ, info.NK, info.NumSteps, info.BoundsMin, info.BoundsMax,
		sess.WS.Codec())

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			log.Fatal(err)
		}
		cmds, err := client.ParseScript(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range cmds {
			sess.WS.Queue(c)
		}
		log.Printf("queued %d script commands from %s", len(cmds), *script)
	}
	if *rake {
		sess.AddRake(vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), 10, integrate.ToolStreamline)
	}
	if *smoke {
		sess.AddRake(vmath.V3(-2, -0.8, 2), vmath.V3(-2, -0.8, 12), 6, integrate.ToolStreakline)
	}
	if *play != 0 {
		sess.Play(float32(*play))
	}

	results := make([]core.FrameResult, 0, *frames)
	for i := 0; i < *frames; i++ {
		r, err := sess.Frame()
		if err != nil {
			// Connected by address, the workstation redials on a later
			// frame; over a shaped link it cannot.
			if *bwMBs > 0 {
				log.Fatal(err)
			}
			log.Printf("frame %d: %v", i+1, err)
			continue
		}
		results = append(results, r)
		if *dump != "" && i%10 == 0 {
			if err := dumpFrame(sess, *dump, i); err != nil {
				log.Fatal(err)
			}
		}
		if (i+1)%25 == 0 {
			log.Printf("frame %d: %v, %d points", i+1, r.Total.Round(time.Microsecond), r.Points)
		}
	}
	stats := sess.WS.Stats()
	fmt.Println(core.Summarize(results))
	fmt.Printf("downstream: %.2f MB over %d net frames\n",
		float64(stats.BytesDown)/(1<<20), stats.NetFrames)
	if n := sess.WS.Reconnects(); n > 0 {
		fmt.Printf("network: %d reconnects\n", n)
	}
	if err := sess.WS.LastNetError(); err != nil {
		fmt.Printf("network: the last frame failed: %v\n", err)
	}
	if stats.ToolFrames > 0 {
		fmt.Printf("shared tools: %d frames carried a tool section, %d tool points in the last\n",
			stats.ToolFrames, stats.LastToolPoints)
	}
}

func dumpFrame(sess *core.Session, dir string, i int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("frame_%04d.ppm", i))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sess.WS.Framebuffer().WritePPM(f)
}
