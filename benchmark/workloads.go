package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/datasets"
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// workload describes one scenario: the dataset, the server and
// topology configuration, the scene, and the rate that sizes a run.
type workload struct {
	name string
	why  string

	data       datasets.Spec
	onDisk     bool // dataset served from a store.Disk instead of memory
	cacheSteps int  // server.Config.CacheSteps (disk only)

	hops   int     // relay hops between the workstations and the origin: 0 or 2
	codecs []uint8 // one workstation per entry

	rakes    int
	seeds    int
	rakeTool func(i int) integrate.ToolKind
	play     bool
	// grabs are queued after the rakes exist: the locks the active
	// user holds for the whole run.
	grabs []wire.Command

	// roundsPerSec sizes a run: --seconds times this many driver rounds
	// (one frame per workstation each), chosen so the reference box
	// measures for about --seconds.
	roundsPerSec float64
	// minWarm is the least number of warm-up rounds.
	minWarm int
	// period, when non-zero, is how many rounds the scene's content
	// takes to repeat (a playback loop, a seek interval). Blocks are
	// whole periods, so every block holds the same work.
	period int

	// input generates the round's pose and commands for workstation ws.
	// i counts from -warm; measured rounds are 0..rounds-1.
	input func(sc *script, ws, i int) frameInput
}

// governorBudget is server.Config.Budget on every workload: at 1 s the
// governor prices and plans every round but never sheds, even through
// a half-second host stall. At 100 ms it sheds heavy's scene, sheds
// playback after every cold load, and shed drag once on a stall — each
// of which makes fidelity, bytes and latency timing-dependent.
const governorBudget = time.Second

// frameInput is what one workstation sends in one frame.
type frameInput struct {
	pose vr.Pose
	cmds []wire.Command
}

// script is a workload's whole input, generated from the seed before
// anything is timed: the program under test sees only these poses and
// commands.
type script struct {
	w      *workload
	seed   int64
	rounds int
	warm   int
	// scene is queued by workstation 0 ahead of its first frame.
	scene []wire.Command
	// in[ws][warm+i] is workstation ws's input for round i.
	in [][]frameInput

	// Seeded generators the input functions draw from, in round order.
	lap  *lap
	rng  *rand.Rand
	perm []int // heavy's order through isoLevels
}

func (sc *script) at(ws, i int) frameInput { return sc.in[ws][sc.warm+i] }

// Eyes and resting hands, one per workstation, placed so that no
// user's head or hand glyph comes within minGlyphDist of another
// user's eye: a glyph at the eye fills the screen with a few huge
// lines and makes RenderFrame several times slower and much noisier.
var (
	eyes = []vmath.Vec3{
		{X: -6, Y: 14, Z: 24},
		{X: 16, Y: 12, Z: 22},
	}
	restHands = []vmath.Vec3{
		{X: 0, Y: 3, Z: 8},
		{X: 3, Y: -3, Z: 8},
	}
	lookTarget = vmath.Vec3{X: 4, Y: 0, Z: 8}
)

const minGlyphDist = 2.0

// headAt returns the head matrix of a user standing at eye and looking
// at the wake.
func headAt(eye vmath.Vec3) vmath.Mat4 {
	view := vmath.LookAt(eye, lookTarget, vmath.V3(0, 1, 0))
	head, _ := view.Inverted()
	return head
}

// rakeLine returns rake i's endpoints: spanwise lines upstream of the
// cylinder, fanned across the wake.
func rakeLine(i, n int) (p0, p1 vmath.Vec3) {
	y := -2.1 + 4.2*float32(i)/float32(max(n-1, 1))
	return vmath.V3(-3, y, 2), vmath.V3(-3, y, 14)
}

// tour is the closed curve the dragged rake's centre (and, in fleet,
// the moving hand) follows: one lap per measured run, so every seed
// visits the same positions and only the starting point, direction and
// a small jitter differ. That keeps bytes and work per frame all but
// independent of the seed while the command bytes are not.
func tour(centre vmath.Vec3, theta float64) vmath.Vec3 {
	return vmath.Vec3{
		X: centre.X + 0.8*float32(math.Cos(theta)),
		Y: centre.Y + 0.5*float32(math.Sin(theta)),
		Z: centre.Z + 1.5*float32(math.Sin(2*theta)),
	}
}

// lap holds the seeded part of a tour.
type lap struct {
	phase float64
	dir   float64
	rng   *rand.Rand
}

func newLap(seed int64) *lap {
	rng := rand.New(rand.NewSource(seed))
	l := &lap{phase: rng.Float64() * 2 * math.Pi, dir: 1, rng: rng}
	if rng.Intn(2) == 0 {
		l.dir = -1
	}
	return l
}

func (l *lap) at(centre vmath.Vec3, i, rounds int) vmath.Vec3 {
	p := tour(centre, l.phase+l.dir*2*math.Pi*float64(i)/float64(rounds))
	const jitter = 0.01
	p.X += jitter * (2*l.rng.Float32() - 1)
	p.Y += jitter * (2*l.rng.Float32() - 1)
	p.Z += jitter * (2*l.rng.Float32() - 1)
	return p
}

func streamlines(int) integrate.ToolKind { return integrate.ToolStreamline }

// smallData is the memory-resident dataset drag, fleet and heavy share;
// bigData is playback's, 4x the cells and served from disk.
var (
	smallData = datasets.Spec{NI: 32, NJ: 48, NK: 12, NumSteps: 24, DT: 0.6}
	bigData   = datasets.Spec{NI: 64, NJ: 96, NK: 24, NumSteps: 32, DT: 0.6}
)

// isoLevels is heavy's level cycle (physical speed; the inflow is 1).
var isoLevels = [8]float32{0.70, 0.78, 0.86, 0.94, 1.02, 1.10, 1.18, 1.26}

var workloads = []*workload{
	{
		name:   "drag",
		why:    "one user drags 1 of 8 rakes: 7 memo hits ship as v2 refs, so per-frame fixed costs (dlib, lock, plan, render) dominate",
		data:   smallData,
		codecs: []uint8{wire.CodecV2},
		rakes:  8, seeds: 32, rakeTool: streamlines,
		grabs:        []wire.Command{{Kind: wire.CmdGrab, Rake: 1, Grab: uint8(integrate.GrabCenter)}},
		roundsPerSec: 390, minWarm: 20,
		input: func(sc *script, ws, i int) frameInput {
			p0, p1 := rakeLine(0, sc.w.rakes)
			pos := sc.lap.at(p0.Lerp(p1, 0.5), i, sc.rounds)
			return frameInput{
				pose: vr.Pose{Head: headAt(eyes[0]), Hand: pos, Gesture: vr.GestureOpen},
				cmds: []wire.Command{{Kind: wire.CmdMove, Rake: 1, Pos: pos}},
			}
		},
	},
	{
		name: "playback",
		why:  "time plays from disk through a cache 1/4 the working set: every rake re-integrates, every segment ships inline, store does its work",
		data: bigData, onDisk: true, cacheSteps: 8,
		codecs: []uint8{wire.CodecV2},
		rakes:  8, seeds: 64,
		rakeTool: func(i int) integrate.ToolKind {
			return [4]integrate.ToolKind{integrate.ToolStreamline, integrate.ToolParticlePath,
				integrate.ToolStreakline, integrate.ToolStreamline}[i%4]
		},
		play:         true,
		roundsPerSec: 124, minWarm: 64, period: 2 * (bigData.NumSteps - 1),
		input: func(sc *script, ws, i int) frameInput {
			in := frameInput{pose: vr.Pose{Head: headAt(eyes[0]), Hand: restHands[0], Gesture: vr.GestureOpen}}
			// A seek every two whole playback loops: between seeks every
			// timestep is shown exactly twice whatever the target, so
			// the seed moves where the cold loads land and not how often
			// each step's geometry ships. A block is one seek period.
			if every := sc.w.period; i >= 0 && i%every == every/2 {
				in.cmds = []wire.Command{{Kind: wire.CmdSeek, Value: float32(sc.rng.Intn(every / 2))}}
			}
			return in
		},
	},
	{
		name:   "fleet",
		why:    "two workstations (v2 moving, v1 watching) behind two relay hops on a memoized scene: relay, dlib, fan-out and codecs do the work",
		data:   smallData,
		hops:   2,
		codecs: []uint8{wire.CodecV2, wire.CodecV1},
		rakes:  8, seeds: 32, rakeTool: streamlines,
		roundsPerSec: 240, minWarm: 20,
		input: func(sc *script, ws, i int) frameInput {
			hand := restHands[ws]
			if ws == 0 {
				hand = sc.lap.at(restHands[0], i, sc.rounds)
			}
			return frameInput{pose: vr.Pose{Head: headAt(eyes[ws]), Hand: hand, Gesture: vr.GestureOpen}}
		},
	},
	{
		name:   "heavy",
		why:    "8 rakes x 256 seeds re-integrate and the isosurface re-levels every frame: compute and isosurf dominate, keyframes are large",
		data:   smallData,
		codecs: []uint8{wire.CodecV2},
		rakes:  8, seeds: 256, rakeTool: streamlines,
		play:         true,
		grabs:        []wire.Command{{Kind: wire.CmdIsoGrab}},
		roundsPerSec: 27, minWarm: 20, period: smallData.NumSteps - 1,
		input: func(sc *script, ws, i int) frameInput {
			level := isoLevels[sc.perm[(i+sc.warm)%len(isoLevels)]]
			return frameInput{
				pose: vr.Pose{Head: headAt(eyes[0]), Hand: restHands[0], Gesture: vr.GestureOpen},
				cmds: []wire.Command{{Kind: wire.CmdIsoSet, Flag: 1, Value: level}},
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizing splits a run of about --seconds into blocks: each block is
// the same whole number of periods (of rounds, for a scene without a
// period), there are at most numBlocks of them, and the run is exactly
// the blocks — up to one block's worth shorter than roundsPerSec x
// seconds, never a remainder.
func (w *workload) sizing(rounds float64) (total, blocks int) {
	period := max(w.period, 1)
	periods := max(int(math.Round(rounds/float64(period))), 1)
	perBlock := (periods + numBlocks - 1) / numBlocks
	blocks = periods / perBlock
	return blocks * perBlock * period, blocks
}

// roundsFor is the number of rounds a run of this length drives.
func (w *workload) roundsFor(seconds float64) int {
	total, _ := w.sizing(w.roundsPerSec * seconds)
	return total
}

// blocksFor is how many blocks a run of roundsFor's rounds is split
// into.
func (w *workload) blocksFor(rounds int) int {
	_, blocks := w.sizing(float64(rounds))
	return blocks
}

// newScript generates every input of a run from the seed.
func newScript(w *workload, seed int64, rounds int) *script {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sc := &script{
		w: w, seed: seed, rounds: rounds, warm: max(rounds/10, w.minWarm),
		lap: newLap(seed), rng: rng, perm: rng.Perm(len(isoLevels)),
	}

	for i := 0; i < w.rakes; i++ {
		p0, p1 := rakeLine(i, w.rakes)
		sc.scene = append(sc.scene, wire.Command{
			Kind: wire.CmdAddRake, P0: p0, P1: p1,
			NumSeeds: uint32(w.seeds), Tool: uint8(w.rakeTool(i)),
		})
	}
	sc.scene = append(sc.scene, w.grabs...)
	if w.play {
		sc.scene = append(sc.scene,
			wire.Command{Kind: wire.CmdSetLoop, Flag: 1},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})
	}

	sc.in = make([][]frameInput, len(w.codecs))
	for i := -sc.warm; i < rounds; i++ {
		for ws := range w.codecs {
			sc.in[ws] = append(sc.in[ws], w.input(sc, ws, i))
		}
	}
	return sc
}

// encode renders the whole script as the bytes the workstations would
// send, for the determinism test.
func (sc *script) encode() []byte {
	out := wire.EncodeClientUpdate(wire.ClientUpdate{Commands: sc.scene})
	for _, frames := range sc.in {
		for _, in := range frames {
			out = append(out, wire.EncodeClientUpdate(wire.ClientUpdate{
				Head: in.pose.Head, Hand: in.pose.Hand, Gesture: uint8(in.pose.Gesture), Commands: in.cmds,
			})...)
		}
	}
	return out
}

// checkPoses enforces the pose hygiene rule over the whole script:
// in every round, every other user's head and hand glyph stays at
// least minGlyphDist from each viewer's eye.
func (sc *script) checkPoses() error {
	origin := vmath.Vec3{}
	for viewer := range sc.in {
		for other := range sc.in {
			if other == viewer {
				continue
			}
			for k, in := range sc.in[other] {
				eye := sc.in[viewer][k].pose.Head.TransformPoint(origin)
				for _, glyph := range []vmath.Vec3{in.pose.Head.TransformPoint(origin), in.pose.Hand} {
					if d := glyph.Dist(eye); d < minGlyphDist {
						return fmt.Errorf("round %d: user %d's glyph is %.2f from user %d's eye", k-sc.warm, other, d, viewer)
					}
				}
			}
		}
	}
	return nil
}
