package server

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// playStore counts the reads that reach the dataset, apart by where
// they run: on a goroutine store.Prefetcher started (background — no
// round is waiting yet) or anywhere else (a handler or one of its pool
// workers: a frame is held up). It is not a store.Source, so the
// server reads it through a store.Cache.
type playStore struct {
	store.Store
	mu     sync.Mutex
	fg, bg int
}

func (p *playStore) LoadStep(t int) (*field.Field, error) {
	background := false
	var pcs [24]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for more := true; more && !background; {
		var fr runtime.Frame
		fr, more = frames.Next()
		background = strings.Contains(fr.Function, "(*Prefetcher).Prefetch")
	}
	p.mu.Lock()
	if background {
		p.bg++
	} else {
		p.fg++
	}
	p.mu.Unlock()
	return p.Store.LoadStep(t)
}

// take returns the reads counted since the last call.
func (p *playStore) take() (fg, bg int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fg, bg = p.fg, p.bg
	p.fg, p.bg = 0, 0
	return fg, bg
}

// playScript is a playback session's commands, one entry a round: a
// particle-path, a streakline and a streamline rake, time looping at
// speed over a dataset of numSteps steps for three loops, and after the
// second loop a seek into the middle, then one to where the path
// window runs off the end of the dataset.
func playScript(numSteps int, speed float32) [][]wire.Command {
	rounds := [][]wire.Command{{
		addRakeCmd(vmath.V3(1, 2, 2), vmath.V3(1, 7, 3), 5, integrate.ToolParticlePath),
		addRakeCmd(vmath.V3(2, 2, 2), vmath.V3(2, 7, 3), 4, integrate.ToolStreakline),
		addRakeCmd(vmath.V3(1, 3, 4), vmath.V3(1, 6, 4), 3, integrate.ToolStreamline),
		{Kind: wire.CmdSetLoop, Flag: 1},
		{Kind: wire.CmdSetSpeed, Value: speed},
		{Kind: wire.CmdSetPlaying, Flag: 1},
	}}
	for i := 1; i < 3*numSteps; i++ {
		rounds = append(rounds, nil)
	}
	rounds[2*numSteps+3] = []wire.Command{{Kind: wire.CmdSeek, Value: 9}}
	rounds[2*numSteps+9] = []wire.Command{{Kind: wire.CmdSeek, Value: float32(numSteps - 3)}}
	return rounds
}

// TestPlaybackFromOneResidentSet plays a looping dataset with a
// particle-path rake, a streakline rake and a streamline rake through
// the I/O-backed server and, with the same script, through a resident
// store.Memory. Every reply must be byte-equal — residency changes when
// a timestep is read, never what is computed from it — forward and in
// reverse, with and without prefetching. Once the first loop has shown
// how far paths reach, a round of steady play reads at most one step
// and, with prefetching on, none of it on the handler's side; a loop
// reads every step once, the wrap included; a seek reads the levels its
// paths reach and not the rest of the dataset.
func TestPlaybackFromOneResidentSet(t *testing.T) {
	const numSteps = 24
	opts := integrate.Options{Method: integrate.RK2, StepSize: 0.25, MaxSteps: 24}
	const maxReach = 24/4 + 2 // what bookPathLoadsLocked caps reach at
	for _, tc := range []struct {
		name     string
		speed    float32
		prefetch bool
	}{
		{"forward", 1, true},
		{"reverse", -1, true},
		{"forward on demand", 1, false},
		{"reverse on demand", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := variedDataset(t, numSteps)
			_, ref, _ := startTestServer(t, Config{Store: data, Options: opts, Clock: netsim.NewManualClock()})
			st := &playStore{Store: data}
			s, c, _ := startTestServer(t, Config{Store: st, Options: opts, Prefetch: tc.prefetch, CacheSteps: 3, Clock: netsim.NewManualClock()})

			prev, wraps, reads := -1, 0, 0
			for i, cmds := range playScript(numSteps, tc.speed) {
				u := wire.EncodeClientUpdate(wire.ClientUpdate{Commands: cmds})
				want, err := ref.Call(wire.ProcFrame, u)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Call(wire.ProcFrame, u)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: reply differs from the resident dataset's (%d vs %d bytes)", i, len(got), len(want))
				}
				s.src.(*store.Cache).Wait() // the next round begins with this round's reads done
				fg, bg := st.take()
				r, err := wire.DecodeFrameReply(got)
				if err != nil {
					t.Fatal(err)
				}
				step := int(r.Time.Current)
				wrapped := prev >= 0 && (step-prev)*int(tc.speed) < 0 && cmds == nil
				prev = step
				if i < numSteps {
					continue // the first loop measures the reach
				}
				if !tc.prefetch && bg != 0 {
					t.Errorf("round %d: %d background reads with prefetching off", i, bg)
				}
				switch {
				case cmds != nil: // a seek
					if fg+bg > maxReach+2 {
						t.Errorf("round %d: a seek to step %d read %d steps, its paths reach %d", i, step, fg+bg, s.pathReach)
					}
					continue
				case wrapped:
					wraps++
					// Forward, the run has wrapped ahead of the playhead:
					// the loop's N-1 playheads touch N steps, so this one
					// round reads two. In reverse the playhead after 0 is
					// N-2 (time N-1 is time 0), the one step the run,
					// counting down through N-1, has not asked for; its
					// path window is cut short by the end of the dataset,
					// so the run reaches further back — in the background.
					// On demand nothing was read ahead: the paths' levels
					// are read as they are asked for.
					wantFg, wantAll := 0, 2
					if tc.speed < 0 {
						wantFg, wantAll = 1, maxReach+2
					}
					if !tc.prefetch {
						wantFg, wantAll = maxReach+2, maxReach+2
					}
					if fg > wantFg || fg+bg > wantAll {
						t.Errorf("round %d: time wrapped and %d+%d steps were read, want at most %d, %d by the handler",
							i, fg, bg, wantAll, wantFg)
					}
				default:
					if tc.prefetch && fg != 0 {
						t.Errorf("round %d (step %d): %d reads on the handler's side in steady play", i, step, fg)
					}
					if fg+bg > 1 {
						t.Errorf("round %d (step %d): %d steps read in one round of steady play", i, step, fg+bg)
					}
				}
				if i >= numSteps && i < 2*numSteps {
					reads += fg + bg
				}
			}
			if wraps < 1 {
				t.Errorf("the script wrapped time %d times after the first loop", wraps)
			}
			// The second loop is N-1 rounds of steady play and one more
			// after the wrap: every step of the dataset read once.
			if reads > numSteps+1 {
				t.Errorf("%d reads in the second loop of a %d-step dataset", reads, numSteps)
			}
			if s.pathReach < 3 || s.pathReach > maxReach {
				t.Errorf("paths reach %d levels, want 3..%d", s.pathReach, maxReach)
			}
			cs, ok := s.CacheStats()
			if !ok || cs.WantedSteps != s.pathReach+2 || cs.ResidentSteps > cs.WantedSteps {
				t.Errorf("cache stats %+v (ok %v), reach %d", cs, ok, s.pathReach)
			}
		})
	}
}

// runFinalizers collects garbage and waits until the finalizers that
// collection queued have run: the second sentinel is queued after the
// first one's batch, so it runs only once that batch is done.
func runFinalizers() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(done) })
		runtime.GC()
		<-done
	}
}

// TestPlaybackFromDiskUnderGC plays TestPlaybackFromOneResidentSet's
// script from a store.Disk, whose steps are released once the
// collector finds their fields unreferenced (a mapped step is unmapped
// then), collecting garbage and running finalizers between rounds.
// Every reply must be byte-equal to the resident dataset's, with and
// without prefetching: no round reads a step through a bare component
// slice whose field it no longer holds.
func TestPlaybackFromDiskUnderGC(t *testing.T) {
	const numSteps = 24
	opts := integrate.Options{Method: integrate.RK2, StepSize: 0.25, MaxSteps: 24}
	for _, prefetch := range []bool{true, false} {
		data := variedDataset(t, numSteps)
		_, ref, _ := startTestServer(t, Config{Store: data, Options: opts, Clock: netsim.NewManualClock()})
		disk := testDiskStore(t, data, store.DiskOptions{})
		s, c, _ := startTestServer(t, Config{Store: disk, Options: opts, Prefetch: prefetch, CacheSteps: 3, Clock: netsim.NewManualClock()})
		for _, speed := range []float32{1, -1} {
			for i, cmds := range playScript(numSteps, speed) {
				u := wire.EncodeClientUpdate(wire.ClientUpdate{Commands: cmds})
				want, err := ref.Call(wire.ProcFrame, u)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Call(wire.ProcFrame, u)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("prefetch %v, speed %v, round %d: reply differs from the resident dataset's (%d vs %d bytes)",
						prefetch, speed, i, len(got), len(want))
				}
				s.src.(*store.Cache).Wait()
				runFinalizers()
			}
		}
		if loads, _, _ := disk.Stats(); loads <= numSteps {
			t.Errorf("prefetch %v: %d loads from a %d-step dataset under a 3-step cache", prefetch, loads, numSteps)
		}
		if n, _ := disk.Mapped(); runtime.GOOS == "linux" && n == 0 {
			t.Errorf("prefetch %v: no step mapped on linux", prefetch)
		}
	}
}
