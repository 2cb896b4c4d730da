// Tapered cylinder exploration: the workload from the paper's
// introduction. Builds the shedding dataset, explores it with all
// three visualization tools (streaklines rendered as smoke, particle
// paths, streamlines), exercises time control — speed up, reverse,
// stop — and writes anaglyph stereo snapshots of each tool as PPM
// images under ./out/.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/integrate"
	"repro/internal/server"
	"repro/internal/vmath"
)

func main() {
	log.SetFlags(0)

	dataset, err := datasets.Analytic(datasets.Spec{
		NI: 32, NJ: 48, NK: 12, NumSteps: 16, DT: 0.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := core.LaunchLocal(dataset, server.Config{}, client.Config{FrameW: 640, FrameH: 512})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Three rakes, one per tool — "It has been found useful to use
	// rakes of several different types in combination" (Sec 2.1).
	sess.AddRake(vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), 8, integrate.ToolStreakline)
	sess.AddRake(vmath.V3(-3, -0.8, 2), vmath.V3(-3, -0.8, 12), 5, integrate.ToolParticlePath)
	sess.AddRake(vmath.V3(-4, 0, 1), vmath.V3(-4, 0, 15), 10, integrate.ToolStreamline)

	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}

	// Phase 1: forward playback — smoke develops in the wake.
	fmt.Println("phase 1: forward playback, smoke developing")
	sess.Play(1)
	runAndReport(sess, 20)
	snapshot(sess, "out/forward.ppm")

	// Phase 2: fast playback — "sped up".
	fmt.Println("phase 2: playback at 3x")
	sess.Play(3)
	runAndReport(sess, 10)

	// Phase 3: reverse — "run backwards".
	fmt.Println("phase 3: time reversed")
	sess.Play(-1)
	runAndReport(sess, 10)
	snapshot(sess, "out/reverse.ppm")

	// Phase 4: stopped "for detailed examination": streamlines of the
	// frozen instantaneous field keep updating as the user moves.
	fmt.Println("phase 4: time stopped, examining the frozen field")
	sess.Stop()
	runAndReport(sess, 10)
	snapshot(sess, "out/stopped.ppm")

	state, _ := sess.WS.Latest()
	fmt.Printf("\nfinal state: time %.2f/%d, %d rakes, %d points on screen\n",
		state.Time.Current, state.Time.NumSteps, len(state.Rakes), state.TotalPoints())
	for _, g := range state.Geometry {
		fmt.Printf("  rake %d (%s): %d lines, %d points\n",
			g.Rake, integrate.ToolKind(g.Tool), len(g.Lines), g.NumPoints())
	}
}

func runAndReport(sess *core.Session, frames int) {
	var worst, sum int64
	var points int
	for i := 0; i < frames; i++ {
		r, err := sess.Frame()
		if err != nil {
			log.Fatal(err)
		}
		sum += r.Total.Nanoseconds()
		if r.Total.Nanoseconds() > worst {
			worst = r.Total.Nanoseconds()
		}
		points = r.Points
	}
	fmt.Printf("  %d frames: mean %.2fms, worst %.2fms, %d points (budget %.0fms)\n",
		frames, float64(sum)/float64(frames)/1e6, float64(worst)/1e6,
		points, float64(core.FrameBudget.Milliseconds()))
}

func snapshot(sess *core.Session, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := sess.WS.Framebuffer().WritePPM(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wrote %s\n", filepath.Clean(path))
}
