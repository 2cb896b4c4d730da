// Shared session: the paper's headline capability — several users on
// separate workstations "share and cooperatively control the
// visualization generated by the Convex". This example starts a
// server, connects three workstation clients, and walks through the
// cooperative scenario of Sec 5.1: user A creates and grabs a rake;
// user B tries to grab the same rake and is locked out
// (first-come-first-served) but freely manipulates a second rake;
// everyone sees everyone else's hand position; when A disconnects, the
// lock is released and B takes over.
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)

	dataset, err := datasets.Analytic(datasets.Spec{
		NI: 24, NJ: 32, NK: 10, NumSteps: 8, DT: 0.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := core.Serve(ln, store.NewMemory(dataset), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Dlib().Close()
	fmt.Printf("server on %s\n\n", ln.Addr())

	userA := connect(ln.Addr().String(), "A")
	userB := connect(ln.Addr().String(), "B")
	userC := connect(ln.Addr().String(), "C")
	defer userB.Close()
	defer userC.Close()

	// A creates two rakes and grabs the first.
	userA.AddRake(vmath.V3(-3, 0.6, 2), vmath.V3(-3, 0.6, 12), 6, integrate.ToolStreamline)
	userA.AddRake(vmath.V3(-4, -1, 2), vmath.V3(-4, -1, 12), 6, integrate.ToolStreamline)
	frame(userA, "A")
	stateA, _ := userA.WS.Latest()
	rake1, rake2 := stateA.Rakes[0].ID, stateA.Rakes[1].ID
	userA.WS.Queue(wire.Command{Kind: wire.CmdGrab, Rake: rake1, Grab: uint8(integrate.GrabCenter)})
	frame(userA, "A")
	fmt.Printf("A grabbed rake %d\n", rake1)

	// B sees A's rakes and A's presence, tries to grab rake 1 (locked
	// out), then works with rake 2.
	frame(userB, "B")
	stateB, _ := userB.WS.Latest()
	fmt.Printf("B sees %d rakes and %d other users\n", len(stateB.Rakes), len(stateB.Users))
	userB.WS.Queue(wire.Command{Kind: wire.CmdGrab, Rake: rake1, Grab: uint8(integrate.GrabEnd0)})
	userB.WS.Queue(wire.Command{Kind: wire.CmdMove, Rake: rake1, Pos: vmath.V3(50, 50, 50)})
	frame(userB, "B")
	stateB, _ = userB.WS.Latest()
	if holder := findHolder(stateB, rake1); holder != 0 {
		fmt.Printf("B's grab of rake %d rejected: still held by session %d (first come, first served)\n",
			rake1, holder)
	}
	userB.WS.Queue(wire.Command{Kind: wire.CmdGrab, Rake: rake2, Grab: uint8(integrate.GrabCenter)})
	userB.WS.Queue(wire.Command{Kind: wire.CmdMove, Rake: rake2, Pos: vmath.V3(-2, 2, 8)})
	frame(userB, "B")
	fmt.Printf("B grabbed and moved rake %d ('Other rakes are unaffected by this locking')\n", rake2)

	// C starts playback; the time control is shared state too.
	userC.Play(1)
	frame(userC, "C")
	fmt.Println("C started playback for everyone")

	// A "signs off": disconnect releases A's locks.
	fmt.Println("\nA disconnects...")
	userA.Close()
	for i := 0; i < 50; i++ {
		frame(userB, "B")
		stateB, _ = userB.WS.Latest()
		if findHolder(stateB, rake1) == 0 {
			break
		}
	}
	userB.WS.Queue(wire.Command{Kind: wire.CmdGrab, Rake: rake1, Grab: uint8(integrate.GrabEnd1)})
	frame(userB, "B")
	stateB, _ = userB.WS.Latest()
	fmt.Printf("rake %d now held by session %d (B) — lock released on disconnect\n",
		rake1, findHolder(stateB, rake1))

	// Everyone still shares one environment.
	frame(userC, "C")
	stateC, _ := userC.WS.Latest()
	fmt.Printf("\nC's view: time %.1f, %d rakes, %d points of geometry, %d users visible\n",
		stateC.Time.Current, len(stateC.Rakes), stateC.TotalPoints(), len(stateC.Users))
}

func connect(addr, name string) *core.Session {
	sess, err := core.Connect(addr, nil, core.Options{FrameW: 160, FrameH: 128})
	if err != nil {
		log.Fatalf("connect %s: %v", name, err)
	}
	return sess
}

func frame(sess *core.Session, name string) {
	if _, err := sess.Frame(); err != nil {
		log.Fatalf("frame %s: %v", name, err)
	}
}

func findHolder(state wire.FrameReply, rake int32) int64 {
	for _, r := range state.Rakes {
		if r.ID == rake {
			return r.Holder
		}
	}
	return -1
}
