// VR session: the full virtual-environment loop of Sec 3 with the
// simulated hardware — BOOM head tracking through six-joint forward
// kinematics, DataGlove finger bends recognized as gestures, Polhemus
// hand tracking with noise — driving rake grabs in the shared
// environment, with the render loop decoupled from the 1/8-second
// command loop (figure 9).
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/vr"
)

func main() {
	log.SetFlags(0)

	dataset, err := datasets.Analytic(datasets.Spec{
		NI: 24, NJ: 32, NK: 10, NumSteps: 10, DT: 0.6,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Demonstrate the device models first.
	boom := vr.NewBoom()
	var angles [vr.NumBoomJoints]float32
	angles[vr.BaseYaw], angles[vr.ElbowPitch] = 0.5, 0.8
	if err := boom.SetAngles(angles); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BOOM: joint angles %v -> head at %v\n", angles, boom.HeadPosition())

	glove, err := vr.NewGlove(vr.DefaultCalibration(), vr.NewPolhemus(vmath.V3(0, 1, 0), 2.5, 0.002, 7))
	if err != nil {
		log.Fatal(err)
	}
	glove.PoseFist()
	fmt.Printf("glove: fist pose recognized as %q\n", glove.Recognize())
	glove.PosePoint()
	fmt.Printf("glove: point pose recognized as %q\n", glove.Recognize())

	// Distributed session over a simulated 13 MB/s UltraNet VME link.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := core.Serve(ln, server.Config{Store: store.NewMemory(dataset)})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Dlib().Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	link := netsim.Link{BandwidthBytesPerSec: netsim.UltraNetVME}.Wrap(raw)
	sess, err := core.Connect("", link, client.Config{FrameW: 320, FrameH: 256})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// A rake near the scripted user's grab target so the fist gesture
	// will actually catch it.
	sess.AddRake(vmath.V3(0.2, 0.9, -0.5), vmath.V3(0.5, 1.1, -0.5), 6, integrate.ToolStreamline)
	sess.Play(1)

	// Run the command loop with the scripted user; watch for the
	// gesture-driven grab.
	fmt.Println("\nrunning 2 grab/drag/release cycles...")
	grabSeen, releaseSeen := false, false
	var budgetHits, frames int
	for i := 0; i < sess.User.CyclePeriod*2; i++ {
		r, err := sess.Frame()
		if err != nil {
			log.Fatal(err)
		}
		frames++
		if r.WithinBudget {
			budgetHits++
		}
		state, _ := sess.WS.Latest()
		if len(state.Rakes) > 0 {
			if state.Rakes[0].Holder != 0 && !grabSeen {
				grabSeen = true
				fmt.Printf("  frame %d: fist gesture grabbed the rake (holder %d, grab %d)\n",
					i, state.Rakes[0].Holder, state.Rakes[0].Grab)
			}
			if grabSeen && state.Rakes[0].Holder == 0 && !releaseSeen {
				releaseSeen = true
				fmt.Printf("  frame %d: open hand released the rake\n", i)
			}
		}
	}
	fmt.Printf("grab seen: %v, release seen: %v\n", grabSeen, releaseSeen)
	fmt.Printf("%d/%d frames within the 1/8s budget\n", budgetHits, frames)

	// Figure 9: decoupled loop rates over the same link.
	netHz, renderHz, err := sess.WS.RunDecoupled(sess.User, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecoupled loops: command %.1f Hz, head-tracked render %.1f Hz (%.1fx)\n",
		netHz, renderHz, renderHz/netHz)
}
