package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// testDataset builds a small resident dataset: uniform +X drift in
// grid coordinates so paths are predictable.
func testDataset(t testing.TB, numSteps int) *store.Memory {
	t.Helper()
	g, err := grid.NewCartesian(16, 16, 8, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(15, 15, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, numSteps)
	for s := range steps {
		f := field.NewField(16, 16, 8, field.GridCoords)
		for i := range f.U {
			f.U[i] = 0.5
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewMemory(u)
}

// toolDataset builds a resident dataset with spatial structure: a
// vertical shear plus a Gaussian swirl around the grid center whose
// amplitude grows per timestep, so iso/vortex extraction is non-empty
// and playback changes the geometry.
func toolDataset(t testing.TB, numSteps int) *store.Memory {
	t.Helper()
	g, err := grid.NewCartesian(16, 16, 8, vmath.AABB{
		Min: vmath.V3(0, 0, 0), Max: vmath.V3(15, 15, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*field.Field, numSteps)
	for s := range steps {
		f := field.NewField(16, 16, 8, field.GridCoords)
		amp := 1 + 0.1*float64(s)
		for k := 0; k < 8; k++ {
			for j := 0; j < 16; j++ {
				for i := 0; i < 16; i++ {
					dx := float64(i) - 7.5
					dy := float64(j) - 7.5
					swirl := amp * 0.4 * math.Exp(-(dx*dx+dy*dy)/18)
					n := f.Index(i, j, k)
					f.U[n] = float32(0.1*float64(j) - dy*swirl)
					f.V[n] = float32(dx * swirl)
					f.W[n] = 0.05
				}
			}
		}
		steps[s] = f
	}
	u, err := field.NewUnsteady(g, steps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewMemory(u)
}

// testDiskStore writes the standard test dataset to a temp directory
// and opens it as an I/O-backed store.
func testDiskStore(t testing.TB, numSteps int, opts store.DiskOptions) *store.Disk {
	t.Helper()
	dir := t.TempDir()
	mem := testDataset(t, numSteps)
	if err := store.WriteDataset(dir, mem.Unsteady()); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// load runs opts against a fresh server over cfg.
func load(t *testing.T, cfg server.Config, opts LoadOptions) (LoadReport, error) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Dlib().Close()
	return RunLoad(s, cfg.Store.Grid(), opts)
}

// TestLoadEncodeOnceFanOut is the scale-out acceptance: a fleet of
// simulated workstations at the paper's 10 frames/second must show
// frames-encoded per round independent of the session count — adding
// workstations adds ships, not encodes.
func TestLoadEncodeOnceFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("paced load run")
	}
	const frames = 5
	run := func(sessions int) LoadReport {
		rep, err := load(t, server.Config{Store: testDataset(t, 4)}, LoadOptions{
			Sessions:     sessions,
			Frames:       frames,
			FrameRate:    10,
			Rakes:        2,
			SeedsPerRake: 8,
			ActiveUsers:  1,
		})
		if err != nil {
			t.Fatalf("%d sessions: %v", sessions, err)
		}
		t.Logf("%v", rep)
		return rep
	}
	small := run(8)
	big := run(64)
	for _, rep := range []LoadReport{small, big} {
		if rep.Errors != 0 {
			t.Fatalf("load errors: %+v", rep)
		}
		if want := int64(rep.Sessions * frames); rep.FramesShipped != want {
			t.Errorf("%d sessions shipped %d frames, want %d",
				rep.Sessions, rep.FramesShipped, want)
		}
		// Encodes track rounds (waves of the paced fleet), not calls:
		// with every session calling each period, at most ~one encode
		// per period plus scheduling slack — far below sessions*frames.
		if rep.FramesEncoded > 2*frames+2 {
			t.Errorf("%d sessions encoded %d rounds for %d paced periods",
				rep.Sessions, rep.FramesEncoded, frames)
		}
	}
	// The independence claim itself: 8x the fleet must not mean more
	// encodes per round. Ships scale, encodes do not.
	if big.FramesEncoded > 2*small.FramesEncoded+4 {
		t.Errorf("encodes scaled with sessions: %d sessions -> %d encodes, %d sessions -> %d encodes",
			small.Sessions, small.FramesEncoded, big.Sessions, big.FramesEncoded)
	}
	if big.FanOut() < float64(big.Sessions)/2 {
		t.Errorf("fan-out %.1fx for %d sessions", big.FanOut(), big.Sessions)
	}
	if big.Latency.P50 <= 0 || big.Latency.Max < big.Latency.P99 ||
		big.Latency.P99 < big.Latency.P50 {
		t.Errorf("latency percentiles inconsistent: %+v", big.Latency)
	}
}

// TestLoadCodecV2BytesPerFrame is the Wire 2.0 acceptance: on the
// steady scenario (scene holds still; the active user's hand motion
// forces a re-encode every round) a 64-session fleet speaking codec v2
// must report bytes/frame at least 4x below the same fleet on v1 —
// unchanged rakes ship as references, not re-sent geometry.
func TestLoadCodecV2BytesPerFrame(t *testing.T) {
	const sessions, frames = 64, 5
	run := func(codec uint8) LoadReport {
		rep, err := load(t, server.Config{Store: testDataset(t, 4)}, LoadOptions{
			Sessions:     sessions,
			Frames:       frames,
			Rakes:        2,
			SeedsPerRake: 8,
			ActiveUsers:  1,
			Codec:        codec,
		})
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		t.Logf("%v", rep)
		if rep.Errors != 0 {
			t.Fatalf("codec %d: load errors: %+v", codec, rep)
		}
		if want := int64(sessions * frames); rep.FramesShipped != want {
			t.Fatalf("codec %d: shipped %d frames, want %d", codec, rep.FramesShipped, want)
		}
		return rep
	}
	v1 := run(wire.CodecV1)
	v2 := run(wire.CodecV2)
	if v2.BytesPerFrame() <= 0 {
		t.Fatalf("v2 bytes/frame not reported: %+v", v2)
	}
	if ratio := v1.BytesPerFrame() / v2.BytesPerFrame(); ratio < 4 {
		t.Errorf("codec v2 bytes/frame %.0f vs v1 %.0f: %.1fx reduction, want >= 4x",
			v2.BytesPerFrame(), v1.BytesPerFrame(), ratio)
	}
}

// TestLoadCacheHitRate is the store acceptance: a figure-8 unsteady
// replay (looping playback over an I/O-backed dataset) against a cache
// with capacity >= the loop must serve >= 90% of timestep loads from
// memory.
func TestLoadCacheHitRate(t *testing.T) {
	const steps = 6
	rep, err := load(t, server.Config{
		Store:      testDiskStore(t, steps, store.DiskOptions{}),
		Prefetch:   true,
		CacheSteps: steps,
	}, LoadOptions{
		Sessions:     2,
		Frames:       100,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		Play:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasCache {
		t.Fatal("no cache stats in report")
	}
	t.Logf("cache: %+v hit rate %.2f", rep.Cache, rep.Cache.HitRate())
	if rep.Cache.Evictions != 0 {
		t.Errorf("evictions with capacity == loop length: %+v", rep.Cache)
	}
	if got := rep.Cache.HitRate(); got < 0.9 {
		t.Errorf("hit rate %.2f, want >= 0.90", got)
	}
}

// TestLoadCacheEvictionRegime pins the tight-budget regime: capacity 2
// over a longer loop still serves every frame correctly, evicting and
// re-reading as playback cycles.
func TestLoadCacheEvictionRegime(t *testing.T) {
	const steps = 5
	rep, err := load(t, server.Config{
		Store:      testDiskStore(t, steps, store.DiskOptions{}),
		CacheSteps: 2,
	}, LoadOptions{
		Sessions:     2,
		Frames:       3 * steps,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		Play:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors under eviction churn: %+v", rep)
	}
	if rep.Cache.Evictions == 0 {
		t.Errorf("no evictions with capacity 2 over a %d-step loop: %+v", steps, rep.Cache)
	}
	if rep.Cache.ResidentSteps > 2 {
		t.Errorf("resident %d exceeds budget 2", rep.Cache.ResidentSteps)
	}
}

// TestLoadShapedLink smoke-tests a bandwidth-shaped link end to end.
func TestLoadShapedLink(t *testing.T) {
	rep, err := load(t, server.Config{Store: testDataset(t, 3)}, LoadOptions{
		Sessions:     3,
		Frames:       4,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		Link:         netsim.Link{BandwidthBytesPerSec: 20 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 3 || rep.Frames != 4 {
		t.Fatalf("report dims: %+v", rep)
	}
	if rep.FramesShipped != 12 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.HasCache {
		t.Error("memory store grew a cache")
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

// TestLoadRelayFanOut is the cluster-tier acceptance: a 256-workstation
// fleet attached through 4 leaf relay/cache nodes must still show
// origin encodes per round independent of the fleet size — the origin
// ships each round once per relay (a handful of full payloads), the
// leaves re-fan it to their 64 local workstations each.
func TestLoadRelayFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("paced load run")
	}
	const sessions, frames, relays = 256, 5, 4
	rep, err := load(t, server.Config{Store: testDataset(t, 4)}, LoadOptions{
		Sessions:     sessions,
		Frames:       frames,
		FrameRate:    10,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		Relays:       relays,
		RelayHops:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", rep)
	if rep.Errors != 0 || rep.DroppedSamples != 0 {
		t.Fatalf("relay run not clean: errors=%d dropped=%d", rep.Errors, rep.DroppedSamples)
	}
	if len(rep.Tiers) != 1 || rep.Tiers[0].Name != "leaf" || rep.Tiers[0].Nodes != relays {
		t.Fatalf("tier accounting: %+v", rep.Tiers)
	}
	leaf := rep.Tiers[0]
	if want := int64(sessions * frames); leaf.DownFrames != want {
		t.Errorf("leaf tier delivered %d frames, want %d", leaf.DownFrames, want)
	}
	// Every delivery came off the leaf caches: the origin served no
	// per-session frames at all, only relay rounds.
	if rep.FramesShipped != 0 {
		t.Errorf("origin shipped %d per-session frames through the relay tier", rep.FramesShipped)
	}
	// The encode-once claim at 256 sessions: encodes track paced
	// rounds, not workstations (same bound as the direct-connect test).
	if rep.FramesEncoded > 2*frames+2 {
		t.Errorf("origin encoded %d rounds for %d paced periods at %d sessions",
			rep.FramesEncoded, frames, sessions)
	}
	// Each round crosses each leaf's upstream link at most once (the
	// +1 is the scene round computed before the stats window opened;
	// every leaf's first fetch pulls it as a full).
	if rep.OriginRelayFulls > int64(relays)*(rep.Rounds+1) {
		t.Errorf("origin fulls %d exceed relays(%d) x rounds(%d)+1",
			rep.OriginRelayFulls, relays, rep.Rounds)
	}
	if amp := leaf.Amplification(); amp < float64(sessions)/16 {
		t.Errorf("leaf amplification %.1fx for %d sessions over %d relays", amp, sessions, relays)
	}
	if rep.FanOut() < float64(sessions)/2 {
		t.Errorf("fan-out %.1fx for %d sessions", rep.FanOut(), sessions)
	}
	if leaf.HitRate() <= 0 {
		t.Errorf("leaf cache hit rate %.2f", leaf.HitRate())
	}
}

// TestLoadRelayTwoHops runs the deep topology on codec v2: leaves
// funnel through one mid aggregation relay, so full round payloads
// cross the origin's link about once per round no matter how many
// leaves fan in below.
func TestLoadRelayTwoHops(t *testing.T) {
	const sessions, frames, relays = 48, 4, 3
	rep, err := load(t, server.Config{Store: testDataset(t, 4)}, LoadOptions{
		Sessions:     sessions,
		Frames:       frames,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		Relays:       relays,
		RelayHops:    2,
		Codec:        wire.CodecV2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", rep)
	if rep.Errors != 0 {
		t.Fatalf("two-hop v2 run errors: %d", rep.Errors)
	}
	if len(rep.Tiers) != 2 || rep.Tiers[1].Name != "mid" || rep.Tiers[1].Nodes != 1 {
		t.Fatalf("tier accounting: %+v", rep.Tiers)
	}
	if want := int64(sessions * frames); rep.Tiers[0].DownFrames != want {
		t.Errorf("leaf tier delivered %d frames, want %d", rep.Tiers[0].DownFrames, want)
	}
	// Only the mid relay talks to the origin: origin-side fulls are
	// bounded by rounds, not by the leaf count. The +1 is the scene
	// round computed before the report's stats window opened — the
	// fleet's first fetch pulls it as a full.
	if rep.OriginRelayFulls > rep.Rounds+1 {
		t.Errorf("origin fulls %d exceed rounds %d through the mid relay",
			rep.OriginRelayFulls, rep.Rounds)
	}
	// The mid tier absorbs the leaf fan-in: leaves fetched from it,
	// not the origin.
	if rep.Tiers[1].DownFrames != rep.Tiers[0].UpFulls+rep.Tiers[0].UpMarkers {
		t.Errorf("mid served %d frames, leaves fetched %d",
			rep.Tiers[1].DownFrames, rep.Tiers[0].UpFulls+rep.Tiers[0].UpMarkers)
	}
}

// TestLoadDroppedSampleAccounting is the regression for the silent
// latency-sample truncation: sessions that die partway used to vanish
// from the report's percentile ranking with no trace. Two of eight
// workstations are reset deterministically after their first frame;
// the report must count every lost sample, and MaxDroppedFrac decides
// whether the run fails.
func TestLoadDroppedSampleAccounting(t *testing.T) {
	const sessions, frames = 8, 10
	// The reset fires on the session's very first op, so each faulted
	// session drops exactly its full quota of samples — independent of
	// how many reads/writes one RPC costs.
	faulty := func(i int) *netsim.FaultPlan {
		if i >= 2 {
			return nil
		}
		return &netsim.FaultPlan{Faults: []netsim.Fault{{Kind: netsim.FaultReset, AtOp: 1}}}
	}
	run := func(maxFrac float64) (LoadReport, error) {
		return load(t, server.Config{Store: testDataset(t, 3)}, LoadOptions{
			Sessions:       sessions,
			Frames:         frames,
			Rakes:          2,
			SeedsPerRake:   8,
			ActiveUsers:    1,
			Codec:          wire.CodecV1,
			SessionFault:   faulty,
			MaxDroppedFrac: maxFrac,
		})
	}

	// Each faulted session loses its whole quota.
	const wantDropped = 2 * frames

	// Legacy threshold (0): the failure propagates — but the drops are
	// now counted instead of silently truncated.
	rep, err := run(0)
	if err == nil {
		t.Fatal("run with dead sessions and MaxDroppedFrac=0 returned nil error")
	}
	if rep.DroppedSamples != wantDropped {
		t.Errorf("dropped %d samples, want %d", rep.DroppedSamples, wantDropped)
	}
	if rep.Errors != 2 {
		t.Errorf("errors = %d, want 2", rep.Errors)
	}
	if rep.Latency.P50 <= 0 {
		t.Errorf("surviving sessions' percentiles missing: %+v", rep.Latency)
	}

	// A tolerant threshold turns the same run into a clean report.
	rep, err = run(0.5)
	if err != nil {
		t.Fatalf("run with 25%% drops and 50%% tolerance failed: %v", err)
	}
	if rep.DroppedSamples != wantDropped {
		t.Errorf("tolerated run dropped %d samples, want %d", rep.DroppedSamples, wantDropped)
	}

	// A threshold below the observed fraction still fails, loudly.
	if _, err = run(0.1); err == nil {
		t.Fatal("run with 25%% drops and 10%% tolerance returned nil error")
	} else if !strings.Contains(err.Error(), "tolerated") {
		t.Errorf("threshold error does not name the tolerance: %v", err)
	}
}

// TestLoadToolMix drives the shared-tool load mix: all three tools
// enabled at setup, workstation 0 churning the iso level and plane
// position while the fleet fans out. The report must show tool
// computes, memo reuse across the fleet's frames, and real geometry
// points; the run must stay clean.
func TestLoadToolMix(t *testing.T) {
	const sessions, frames = 8, 6
	// No playback: the step stays put, so workstation 0's iso/plane
	// churn forces recomputes in which the untouched vortex tool must
	// memo-hit — the reuse half of the tool cost model.
	rep, err := load(t, server.Config{Store: toolDataset(t, 4)}, LoadOptions{
		Sessions:     sessions,
		Frames:       frames,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		ToolsEvery:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", rep)
	if rep.Errors != 0 || rep.DroppedSamples != 0 {
		t.Fatalf("tool-mix run not clean: errors=%d dropped=%d", rep.Errors, rep.DroppedSamples)
	}
	if rep.ToolsComputed == 0 {
		t.Error("no tool geometry computed under the tool mix")
	}
	if rep.ToolPoints == 0 {
		t.Error("tool computes produced no geometry points")
	}
	// The memo must carry tool geometry across the fleet: a fleet of 8
	// holding rounds stable reuses far more often than it computes.
	if rep.ToolsReused == 0 {
		t.Error("no tool memo reuse across the fleet")
	}
	if !strings.Contains(rep.String(), "tools computed=") {
		t.Errorf("report does not surface tool stats: %s", rep)
	}
}

// TestLoadToolMixRelay runs the tool mix through a relay tier on
// codec v2: tool segments must survive the relay cache (negative
// directory keys) with a clean run and geometry still flowing.
func TestLoadToolMixRelay(t *testing.T) {
	const sessions, frames = 12, 5
	rep, err := load(t, server.Config{Store: toolDataset(t, 4)}, LoadOptions{
		Sessions:     sessions,
		Frames:       frames,
		Rakes:        2,
		SeedsPerRake: 8,
		ActiveUsers:  1,
		Play:         true,
		ToolsEvery:   2,
		Relays:       2,
		RelayHops:    1,
		Codec:        wire.CodecV2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", rep)
	if rep.Errors != 0 {
		t.Fatalf("relayed tool-mix run errors: %d", rep.Errors)
	}
	if rep.ToolsComputed == 0 || rep.ToolPoints == 0 {
		t.Errorf("relayed tool mix computed=%d points=%d, want both > 0",
			rep.ToolsComputed, rep.ToolPoints)
	}
}
