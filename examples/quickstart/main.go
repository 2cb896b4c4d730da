// Quickstart: build a small unsteady dataset, launch a stand-alone
// windtunnel session, drop a rake of streamlines into the wake of the
// tapered cylinder, and run a few head-tracked frames — the minimal
// end-to-end tour of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/server"
	"repro/internal/vmath"
)

func main() {
	log.SetFlags(0)

	// 1. A curvilinear O-grid around the tapered cylinder.
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 24, NJ: 32, NK: 10,
		R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Sample the unsteady shedding flow onto it and convert the
	// velocities to grid coordinates (the paper's Sec 2.1 trick that
	// makes interactive integration possible).
	dataset, err := flow.SampleUnsteady(flow.DefaultTaperedCylinder(), g, 12, 0, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.ToGridCoords(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d timesteps x %.2f MB\n",
		dataset.NumSteps(), float64(dataset.Steps[0].SizeBytes())/(1<<20))

	// 3. Launch the stand-alone windtunnel (server + workstation in
	// one process) and add a streamline rake spanning the wake.
	sess, err := core.LaunchLocal(dataset, server.Config{}, client.Config{FrameW: 320, FrameH: 256})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	sess.AddRake(vmath.V3(-3, 0.6, 1), vmath.V3(-3, 0.6, 14), 8, integrate.ToolStreamline)
	sess.Play(1)

	// 4. Run interaction frames: scripted head/hand input, remote
	// computation, stereo render — each must fit the 1/8 s budget.
	for i := 0; i < 10; i++ {
		r, err := sess.Frame()
		if err != nil {
			log.Fatal(err)
		}
		status := "ok"
		if !r.WithinBudget {
			status = "OVER BUDGET"
		}
		fmt.Printf("frame %2d: %8v  %5d points  [%s]\n",
			i, r.Total.Round(10e3), r.Points, status)
	}

	st := sess.Server().Stats()
	fmt.Printf("\nserver: %d rounds computed, %d path points total\n", st.Frames, st.Points)
}
