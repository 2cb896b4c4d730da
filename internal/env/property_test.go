package env

import (
	"math/rand"
	"testing"

	"repro/internal/integrate"
	"repro/internal/vmath"
)

// TestRandomOpsInvariants drives the environment through thousands of
// random operations from several users and checks the structural
// invariants after every step:
//
//  1. at most one holder per rake, and a holder is always a user that
//     successfully grabbed and has not released;
//  2. playback time stays within [0, NumSteps-1];
//  3. rake ids are unique and rakes never lose their seeds;
//  4. steering and each shared tool have exactly the holder the model
//     says, and their parameters and versions match it: a version
//     moves exactly when the parameters change;
//  5. the environment version moves on a tool-holder change (tool
//     holders ship in frames) and never on a steering-holder change.
func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := New(20)
	e.SetPlaying(true)

	// Model: which user we believe holds each rake, steering and each
	// tool, and each tool's and steering's parameters and version.
	holder := map[int32]int64{}
	var ids []int32
	users := []int64{1, 2, 3, 4}
	var steer SteerState
	var tools ToolsState

	for step := 0; step < 8000; step++ {
		user := users[rng.Intn(len(users))]
		envBefore := e.Version()
		switch op := rng.Intn(16); op {
		case 0: // add
			id, err := e.AddRake(randVec(rng), randVec(rng), 1+rng.Intn(10), integrate.ToolStreamline)
			if err != nil {
				t.Fatalf("add: %v", err)
			}
			ids = append(ids, id)
		case 1: // remove (maybe held)
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			err := e.RemoveRake(user, id)
			if h, held := holder[id]; held && h != user {
				if err == nil {
					t.Fatalf("step %d: user %d removed rake %d held by %d", step, user, id, h)
				}
			} else if err == nil {
				delete(holder, id)
				ids = removeID(ids, id)
			}
		case 2, 3: // grab
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			err := e.GrabRake(user, id, integrate.GrabCenter)
			if h, held := holder[id]; held && h != user {
				if err == nil {
					t.Fatalf("step %d: user %d stole rake %d from %d", step, user, id, h)
				}
			} else if err != nil {
				t.Fatalf("step %d: free grab failed: %v", step, err)
			} else {
				holder[id] = user
			}
		case 4, 5: // move
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			err := e.MoveRake(user, id, randVec(rng))
			shouldWork := holder[id] == user
			if shouldWork && err != nil {
				t.Fatalf("step %d: holder move failed: %v", step, err)
			}
			if !shouldWork && err == nil {
				t.Fatalf("step %d: non-holder move succeeded", step)
			}
		case 6: // release
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			err := e.ReleaseRake(user, id)
			if holder[id] == user {
				if err != nil {
					t.Fatalf("step %d: holder release failed: %v", step, err)
				}
				delete(holder, id)
			} else if err == nil {
				t.Fatalf("step %d: non-holder release succeeded", step)
			}
		case 7: // disconnect: all of user's locks release
			e.ReleaseAll(user)
			held := false
			for id, h := range holder {
				if h == user {
					delete(holder, id)
					held = true
				}
			}
			for i := range tools {
				if tools[i].Holder == user {
					tools[i].Holder = 0
					held = true
				}
			}
			if steer.Holder == user {
				steer.Holder = 0
			}
			// Users set no pose here, so only a rake or a tool lock
			// makes the departure visible.
			if moved := e.Version() != envBefore; moved != held {
				t.Fatalf("step %d: departure of user %d moved env version: %v, held a rake or tool: %v",
					step, user, moved, held)
			}
		case 8: // time control
			e.SetSpeed(rng.Float32()*6 - 3)
			e.AdvanceTime()
		case 9: // seek
			e.SeekTime(rng.Float32()*40 - 10)
		case 10: // steering grab or release: never frame-observable
			var err error
			wantOK := steer.Holder == 0 || steer.Holder == user
			if rng.Intn(2) == 0 {
				err = e.GrabSteer(user)
				if wantOK {
					steer.Holder = user
				}
			} else {
				err = e.ReleaseSteer(user)
				wantOK = steer.Holder == user
				if wantOK {
					steer.Holder = 0
				}
			}
			if (err == nil) != wantOK {
				t.Fatalf("step %d: steering grab/release by %d: err %v, model holder %d", step, user, err, steer.Holder)
			}
			if e.Version() != envBefore {
				t.Fatalf("step %d: steering holder change moved the env version", step)
			}
		case 11: // steer
			p := SteerParams{InflowU: float32(1 + rng.Intn(2)), Reynolds: 400, Taper: 0.5}
			err := e.SetSteer(user, p)
			wantOK := steer.Holder == 0 || steer.Holder == user
			if (err == nil) != wantOK {
				t.Fatalf("step %d: steer by %d: err %v, model holder %d", step, user, err, steer.Holder)
			}
			if wantOK && p != steer.Params {
				steer.Params = p
				steer.Version++
			}
		case 12: // tool grab
			i := rng.Intn(NumTools)
			err := e.GrabTool(user, ToolID(i+1))
			wantOK := tools[i].Holder == 0 || tools[i].Holder == user
			if (err == nil) != wantOK {
				t.Fatalf("step %d: tool %d grab by %d: err %v, model holder %d", step, i, user, err, tools[i].Holder)
			}
			changed := wantOK && tools[i].Holder != user
			if wantOK {
				tools[i].Holder = user
			}
			if moved := e.Version() != envBefore; moved != changed {
				t.Fatalf("step %d: tool %d grab: env version moved %v, holder changed %v", step, i, moved, changed)
			}
		case 13: // tool release
			i := rng.Intn(NumTools)
			err := e.ReleaseTool(user, ToolID(i+1))
			wantOK := tools[i].Holder == user
			if (err == nil) != wantOK {
				t.Fatalf("step %d: tool %d release by %d: err %v, model holder %d", step, i, user, err, tools[i].Holder)
			}
			if wantOK {
				tools[i].Holder = 0
			}
			if moved := e.Version() != envBefore; moved != wantOK {
				t.Fatalf("step %d: tool %d release: env version moved %v, holder changed %v", step, i, moved, wantOK)
			}
		case 14, 15: // tool set, values from a small set so no-op sets happen
			i := rng.Intn(NumTools)
			p := ToolParams{Enabled: rng.Intn(2) == 0, Axis: uint8(rng.Intn(2)), Value: float32(rng.Intn(3)) / 4}
			err := e.SetTool(user, ToolID(i+1), p)
			wantOK := tools[i].Holder == 0 || tools[i].Holder == user
			if (err == nil) != wantOK {
				t.Fatalf("step %d: tool %d set by %d: err %v, model holder %d", step, i, user, err, tools[i].Holder)
			}
			changed := wantOK && p != tools[i].Params
			if changed {
				tools[i].Params = p
				tools[i].Version++
			}
			if moved := e.Version() != envBefore; moved != changed {
				t.Fatalf("step %d: tool %d set: env version moved %v, params changed %v", step, i, moved, changed)
			}
		}

		// Invariants.
		ts := e.Time()
		if ts.Current < 0 || ts.Current > float32(ts.NumSteps-1) {
			t.Fatalf("step %d: time %v out of [0, %d]", step, ts.Current, ts.NumSteps-1)
		}
		seen := map[int32]bool{}
		for _, snap := range e.Rakes() {
			if seen[snap.Rake.ID] {
				t.Fatalf("step %d: duplicate rake id %d", step, snap.Rake.ID)
			}
			seen[snap.Rake.ID] = true
			if snap.Rake.NumSeeds < 1 {
				t.Fatalf("step %d: rake %d lost its seeds", step, snap.Rake.ID)
			}
			if want := holder[snap.Rake.ID]; snap.Holder != want {
				t.Fatalf("step %d: rake %d holder %d, model says %d",
					step, snap.Rake.ID, snap.Holder, want)
			}
		}
		if got := e.Steer(); got != steer {
			t.Fatalf("step %d: steering %+v, model says %+v", step, got, steer)
		}
		if got := e.Tools(); got != tools {
			t.Fatalf("step %d: tools %+v, model says %+v", step, got, tools)
		}
	}
}

func randVec(rng *rand.Rand) vmath.Vec3 {
	return vmath.V3(rng.Float32()*20-10, rng.Float32()*20-10, rng.Float32()*20-10)
}

func removeID(ids []int32, id int32) []int32 {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}
