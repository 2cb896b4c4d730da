package server

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// The in-situ golden corpus: committed wire bytes for canonical live
// sessions, pinned alongside the offline corpus. The solver itself is
// part of the byte surface here — any change to the coupling (spinup,
// CFL sub-stepping, snapshot sampling, steering application order)
// moves these bytes. The offline corpus files are untouched by design:
// live mode must not perturb the existing protocol surface.
//
// Regenerate with:
//
//	go test ./internal/server/ -run TestGoldenFramesLive -update

// boundsAt maps box fractions to a point in the grid's physical bounds
// — rake endpoints for grids whose extent depends on the Spec.
func boundsAt(g *grid.Grid, fx, fy, fz float32) vmath.Vec3 {
	b := g.Bounds()
	return b.Min.Add(b.Max.Sub(b.Min).Mul(vmath.V3(fx, fy, fz)))
}

// goldenLiveServer builds the in-situ scenario server: the shared small
// solver spec, ManualClock, and the given governor configuration.
func goldenLiveServer(t *testing.T, budget time.Duration, unitNanos float64) *Server {
	t.Helper()
	spec, sopts := liveSpec()
	s, _ := liveServer(t, spec, sopts, spec.NumSteps, Config{Budget: budget})
	s.gov.unitNanos = unitNanos
	return s
}

var goldenLiveScenarios = []struct {
	goldenScenario
	v2 bool
}{
	{
		// Frozen-steering live playback over the v1 codec: a streamline
		// and a streakline rake under looping playback, driving the
		// producer through the whole horizon and back around the sealed
		// history window.
		goldenScenario: goldenScenario{
			name: "live-steady",
			run: func(t *testing.T, s *Server) [][]byte {
				g := s.src.Grid()
				return runSession(t, s, 1, []wire.ClientUpdate{
					{Commands: []wire.Command{
						addRakeCmd(boundsAt(g, 0.6, 0.35, 0.5), boundsAt(g, 0.6, 0.55, 0.5), 3, integrate.ToolStreamline),
						addRakeCmd(boundsAt(g, 0.5, 0.45, 0.6), boundsAt(g, 0.5, 0.65, 0.6), 3, integrate.ToolStreakline),
						{Kind: wire.CmdSetLoop, Flag: 1},
						{Kind: wire.CmdSetSpeed, Value: 1},
						{Kind: wire.CmdSetPlaying, Flag: 1},
					}},
					{}, {}, {}, {}, {},
				})
			},
		},
	},
	{
		// A mid-run steering change over the v2 codec: playback reaches
		// the steer frame, the parameter change lands between timesteps,
		// and every step produced afterwards carries the new flow — the
		// delta encoder keyframes the changed geometry while untouched
		// state stays referenced.
		goldenScenario: goldenScenario{
			name: "steer-keyframe",
			run: func(t *testing.T, s *Server) [][]byte {
				g := s.src.Grid()
				d := newV2Session(t, s, 1)
				updates := []wire.ClientUpdate{
					{Commands: []wire.Command{
						addRakeCmd(boundsAt(g, 0.6, 0.35, 0.5), boundsAt(g, 0.6, 0.55, 0.5), 3, integrate.ToolStreamline),
						addRakeCmd(boundsAt(g, 0.5, 0.45, 0.6), boundsAt(g, 0.5, 0.65, 0.6), 3, integrate.ToolStreakline),
						{Kind: wire.CmdSetSpeed, Value: 1},
						{Kind: wire.CmdSetPlaying, Flag: 1},
					}},
					{}, {},
					{Commands: []wire.Command{
						{Kind: wire.CmdSteerGrab},
						{Kind: wire.CmdSteer, P0: vmath.V3(2, 300, 0.8)},
					}},
					{}, {},
				}
				frames := make([][]byte, len(updates))
				for i, u := range updates {
					frames[i] = d.rawFrame(u)
				}
				return frames
			},
		},
		v2: true,
	},
}

func TestGoldenFramesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver several times")
	}
	for _, sc := range goldenLiveScenarios {
		t.Run(sc.name, func(t *testing.T) {
			frames := sc.run(t, goldenLiveServer(t, 0, 0))
			// Rerun determinism: a fresh solver replaying the same script
			// must reproduce the stream exactly — the live coupling leaves
			// no room for incidental divergence.
			again := sc.run(t, goldenLiveServer(t, 0, 0))
			compareFrames(t, "rerun", again, frames)
			if sc.v2 {
				// The whole v2 stream must decode through one stateful
				// decoder built from the live dataset's quantizer.
				dec := wire.NewFrameDecoder(goldenLiveServer(t, 0, 0).datasetInfo().Quantizer())
				for i, f := range frames {
					if _, err := dec.Decode(f); err != nil {
						t.Fatalf("frame %d does not decode: %v", i, err)
					}
				}
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(goldenPath(sc.name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(sc.name), encodeFrames(frames), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s: %d frames", goldenPath(sc.name), len(frames))
				return
			}
			data, err := os.ReadFile(goldenPath(sc.name))
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			golden, err := decodeFrames(data)
			if err != nil {
				t.Fatal(err)
			}
			compareFrames(t, "ungoverned", frames, golden)

			// Governed at a budget no frame can exceed: live-mode shedding
			// must be a strict no-op exactly as for the offline corpus.
			governed := sc.run(t, goldenLiveServer(t, time.Hour, 100))
			compareFrames(t, "governed-at-infinite-budget", governed, golden)
		})
	}
}
