package server

import (
	"testing"
	"time"

	"repro/internal/dlib"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// roundStep is one scripted handleFrame call in a round-accounting
// scenario: which session calls, with what update, and what the
// server-side accounting must show afterwards.
type roundStep struct {
	name    string
	session int64
	update  wire.ClientUpdate

	// wantComputed: this call entered recomputeLocked (Stats().Frames
	// advanced) — either a true recompute or a whole-frame memo serve.
	wantComputed bool
	// wantReused: the recompute was a whole-frame memo serve.
	wantReused bool
	// wantEncoded: the round was freshly wire-encoded.
	wantEncoded bool
	// wantNewRound: the reply's Round is strictly greater than every
	// Round seen so far; otherwise it must equal the latest one.
	wantNewRound bool
	// wantRakes, when positive, is the rake count the reply must carry.
	wantRakes int
}

// pose returns an update with a distinctive (finite) hand position;
// changing it bumps the environment version, holding it still does not.
func pose(x float32) wire.ClientUpdate {
	return wire.ClientUpdate{Head: vmath.Identity(), Hand: vmath.V3(x, 0, 0)}
}

// TestRoundAccounting drives handleFrame directly (per-session Ctx
// values standing in for connections) through the interleavings the
// fan-out design has to get right. The invariant under test: every
// session receives each round's coherent frame exactly once — a repeat
// request is a new round, a first request joins the round in flight —
// and rounds are encoded at most once no matter how many sessions
// consume them.
func TestRoundAccounting(t *testing.T) {
	scenarios := []struct {
		name  string
		steps []roundStep
	}{
		{
			// A second workstation attaching mid-round rides the round
			// already computed for the first: no recompute, same Round.
			name: "join mid-round",
			steps: []roundStep{
				{name: "s1 opens round", session: 1, update: pose(1),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				{name: "s2 joins without recompute", session: 2, update: pose(2)},
				{name: "s3 joins too", session: 3, update: pose(3)},
				// s1 already consumed the round, so its next call starts
				// a new one; the joins registered new user poses, so the
				// environment version moved and the round truly recomputes.
				{name: "s1 repeat starts new round", session: 1, update: pose(1),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				// Nothing changed since: the repeat is a new round served
				// whole from the memo — same Round on the wire.
				{name: "s1 repeat memo-reuses", session: 1, update: pose(1),
					wantComputed: true, wantReused: true},
				{name: "s2 still just joins", session: 2, update: pose(2)},
			},
		},
		{
			// A slow workstation skips rounds: it receives the latest
			// round, not a replay of the ones it missed.
			name: "skip rounds",
			steps: []roundStep{
				{name: "round 1", session: 1, update: pose(1),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				{name: "round 2", session: 1, update: pose(1.5),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				{name: "round 3", session: 1, update: pose(2),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				// s2's first frame lands on round 3; rounds 1-2 are gone.
				{name: "s2 lands on latest", session: 2, update: pose(9)},
			},
		},
		{
			// Commands force a recompute even for a session that has not
			// consumed the current round: the user must see their own
			// interaction's effect within this frame (§1.2).
			name: "interleaved commands",
			steps: []roundStep{
				{name: "s1 opens round", session: 1, update: pose(1),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				{name: "s2 command forces recompute", session: 2,
					update: wire.ClientUpdate{
						Head: vmath.Identity(), Hand: vmath.V3(2, 0, 0),
						Commands: []wire.Command{{
							Kind: wire.CmdAddRake,
							P0:   vmath.V3(1, 4, 4), P1: vmath.V3(1, 8, 4),
							NumSeeds: 4,
						}},
					},
					wantComputed: true, wantEncoded: true, wantNewRound: true,
					wantRakes: 1},
				// s2's recompute reset everyone's consumed marks, so s1
				// joins the command's round — and the joined frame already
				// carries s2's rake: command effects reach every session
				// without a second recompute.
				{name: "s1 joins and sees s2's rake", session: 1, update: pose(1),
					wantRakes: 1},
				// Both consumed the command round; s1's repeat is a fresh
				// round, truly recomputed because the rake's geometry is
				// new since the last encode... or memo-served if nothing
				// else moved; pin it by moving s1's hand.
				{name: "s1 moves on", session: 1, update: pose(1.25),
					wantComputed: true, wantEncoded: true, wantNewRound: true,
					wantRakes: 1},
			},
		},
		{
			// Exactly-once: alternating sessions each consume each round
			// once; a round is never double-served to one session.
			name: "coherent frame once per round",
			steps: []roundStep{
				{name: "s1 round 1", session: 1, update: pose(1),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				{name: "s2 joins round 1", session: 2, update: pose(2)},
				{name: "s1 round 2", session: 1, update: pose(1),
					wantComputed: true, wantEncoded: true, wantNewRound: true},
				{name: "s2 joins round 2", session: 2, update: pose(2)},
				// Both consumed round 2; s2 asking again is a fresh round,
				// memo-served since the scene held still.
				{name: "s2 repeat is round 3 (memo)", session: 2, update: pose(2),
					wantComputed: true, wantReused: true},
				{name: "s1 joins round 3", session: 1, update: pose(1)},
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s, err := New(Config{Store: testDataset(t, 2)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Dlib().Close()

			ctxs := map[int64]*dlib.Ctx{}
			var maxRound uint64
			var lastRound uint64
			for i, step := range sc.steps {
				ctx := ctxs[step.session]
				if ctx == nil {
					ctx = &dlib.Ctx{Session: &dlib.Session{ID: step.session}}
					ctxs[step.session] = ctx
				}
				before := s.Stats()
				out, err := s.handleFrame(ctx, wire.EncodeClientUpdate(step.update))
				if err != nil {
					t.Fatalf("step %d (%s): %v", i, step.name, err)
				}
				r, err := wire.DecodeFrameReply(out)
				if err != nil {
					t.Fatalf("step %d (%s): decode: %v", i, step.name, err)
				}
				after := s.Stats()

				if got := after.Frames - before.Frames; got != b2i(step.wantComputed) {
					t.Errorf("step %d (%s): computed %d rounds, want %d",
						i, step.name, got, b2i(step.wantComputed))
				}
				if got := after.FramesReused - before.FramesReused; got != b2i(step.wantReused) {
					t.Errorf("step %d (%s): reused %d, want %d",
						i, step.name, got, b2i(step.wantReused))
				}
				if got := after.FramesEncoded - before.FramesEncoded; got != b2i(step.wantEncoded) {
					t.Errorf("step %d (%s): encoded %d, want %d",
						i, step.name, got, b2i(step.wantEncoded))
				}
				// Every call ships exactly one frame to its session.
				if got := after.FramesShipped - before.FramesShipped; got != 1 {
					t.Errorf("step %d (%s): shipped %d frames in one call", i, step.name, got)
				}
				if step.wantNewRound {
					if r.Round <= maxRound {
						t.Errorf("step %d (%s): round %d did not advance past %d",
							i, step.name, r.Round, maxRound)
					}
				} else if r.Round != lastRound {
					t.Errorf("step %d (%s): round %d, want current round %d",
						i, step.name, r.Round, lastRound)
				}
				if step.wantRakes > 0 && len(r.Rakes) != step.wantRakes {
					t.Errorf("step %d (%s): reply has %d rakes, want %d",
						i, step.name, len(r.Rakes), step.wantRakes)
				}
				if r.Round > maxRound {
					maxRound = r.Round
				}
				lastRound = r.Round
			}
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestRoundConsumedByDisconnect pins the bookkeeping leak: a session's
// consumed-round mark must be dropped when its connection goes away,
// and a reconnecting workstation (new session ID) must join cleanly.
func TestRoundConsumedByDisconnect(t *testing.T) {
	s, c, addr := startTestServer(t, Config{Store: testDataset(t, 1)})
	frame(t, c, pose(1))

	c2, err := dlib.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	frame(t, c2, pose(2))

	entries := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.round.consumedBy)
	}
	if got := entries(); got == 0 {
		t.Fatal("no consumed-round marks after two sessions framed")
	}
	before := entries()
	c2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for entries() >= before {
		if time.Now().After(deadline) {
			t.Fatalf("consumedBy still has %d entries after disconnect", entries())
		}
		time.Sleep(time.Millisecond)
	}
}
