package env

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/integrate"
	"repro/internal/vmath"
)

func addRake(t *testing.T, e *Environment) int32 {
	t.Helper()
	id, err := e.AddRake(vmath.V3(0, 0, 0), vmath.V3(1, 0, 0), 5, integrate.ToolStreamline)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAddRemoveRake(t *testing.T) {
	e := New(10)
	id := addRake(t, e)
	if len(e.Rakes()) != 1 {
		t.Fatalf("rakes = %d", len(e.Rakes()))
	}
	if err := e.RemoveRake(1, id); err != nil {
		t.Fatal(err)
	}
	if len(e.Rakes()) != 0 {
		t.Error("rake not removed")
	}
	if err := e.RemoveRake(1, id); err == nil {
		t.Error("double remove accepted")
	}
}

func TestAddRakeValidation(t *testing.T) {
	e := New(10)
	if _, err := e.AddRake(vmath.Vec3{}, vmath.Vec3{}, 0, integrate.ToolStreamline); err == nil {
		t.Error("zero-seed rake accepted")
	}
	// A failed add must not burn an id: the next rake is still id 1.
	id := addRake(t, e)
	if id != 1 {
		t.Errorf("first rake id = %d, want 1", id)
	}
}

func TestFirstComeFirstServedLocking(t *testing.T) {
	// The paper's conflict rule: grabber one wins; grabber two is
	// locked out until release; other rakes are unaffected.
	e := New(10)
	r1 := addRake(t, e)
	r2 := addRake(t, e)

	if err := e.GrabRake(1, r1, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	err := e.GrabRake(2, r1, integrate.GrabCenter)
	var locked *errLocked
	if !errors.As(err, &locked) || locked.Holder != 1 || locked.Object != "rake 1" {
		t.Fatalf("second grab: %v", err)
	}
	// User 2 can still use the other rake.
	if err := e.GrabRake(2, r2, integrate.GrabEnd0); err != nil {
		t.Fatalf("other rake blocked: %v", err)
	}
	// After release, user 2 gets r1.
	if err := e.ReleaseRake(1, r1); err != nil {
		t.Fatal(err)
	}
	if err := e.GrabRake(2, r1, integrate.GrabEnd1); err != nil {
		t.Fatalf("grab after release: %v", err)
	}
}

func TestMoveRequiresHolding(t *testing.T) {
	e := New(10)
	id := addRake(t, e)
	if err := e.MoveRake(1, id, vmath.V3(5, 5, 5)); err == nil {
		t.Error("move of ungrabbed rake accepted")
	}
	if err := e.GrabRake(1, id, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	if err := e.MoveRake(2, id, vmath.V3(5, 5, 5)); err == nil {
		t.Error("move by non-holder accepted")
	}
	if err := e.MoveRake(1, id, vmath.V3(5, 5, 5)); err != nil {
		t.Fatal(err)
	}
	snap, ok := e.Rake(id)
	if !ok {
		t.Fatal("rake vanished")
	}
	if !snap.Rake.Center().ApproxEqual(vmath.V3(5, 5, 5), 1e-5) {
		t.Errorf("center after move = %v", snap.Rake.Center())
	}
}

func TestGrabMovesGrabPoint(t *testing.T) {
	e := New(10)
	id := addRake(t, e)
	if err := e.GrabRake(1, id, integrate.GrabEnd0); err != nil {
		t.Fatal(err)
	}
	// Same user re-grabs at a different point — allowed.
	if err := e.GrabRake(1, id, integrate.GrabEnd1); err != nil {
		t.Fatal(err)
	}
	if err := e.MoveRake(1, id, vmath.V3(9, 9, 9)); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Rake(id)
	if snap.Rake.P1 != vmath.V3(9, 9, 9) {
		t.Errorf("P1 = %v, want moved end", snap.Rake.P1)
	}
	if snap.Rake.P0 != vmath.V3(0, 0, 0) {
		t.Errorf("P0 = %v, want unmoved", snap.Rake.P0)
	}
}

func TestRemoveHeldRake(t *testing.T) {
	e := New(10)
	id := addRake(t, e)
	if err := e.GrabRake(1, id, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveRake(2, id); err == nil {
		t.Error("non-holder removed held rake")
	}
	if err := e.RemoveRake(1, id); err != nil {
		t.Errorf("holder cannot remove: %v", err)
	}
}

func TestReleaseAllOnDisconnect(t *testing.T) {
	e := New(10)
	r1 := addRake(t, e)
	r2 := addRake(t, e)
	if err := e.GrabRake(1, r1, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	if err := e.GrabRake(1, r2, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	e.SetUserPose(1, UserPose{Hand: vmath.V3(1, 2, 3)})
	e.ReleaseAll(1)
	if err := e.GrabRake(2, r1, integrate.GrabCenter); err != nil {
		t.Errorf("rake still locked after ReleaseAll: %v", err)
	}
	if err := e.GrabRake(2, r2, integrate.GrabCenter); err != nil {
		t.Errorf("rake still locked after ReleaseAll: %v", err)
	}
	for _, u := range e.AppendUsers(nil) {
		if u.ID == 1 {
			t.Error("pose survives ReleaseAll")
		}
	}
}

func TestSetRakeSeeds(t *testing.T) {
	e := New(10)
	id := addRake(t, e)
	if err := e.SetRakeSeeds(1, id, 20); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Rake(id)
	if snap.Rake.NumSeeds != 20 {
		t.Errorf("seeds = %d", snap.Rake.NumSeeds)
	}
	if err := e.SetRakeSeeds(1, id, 0); err == nil {
		t.Error("zero seeds accepted")
	}
	if err := e.GrabRake(2, id, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRakeSeeds(1, id, 5); err == nil {
		t.Error("non-holder changed seeds of held rake")
	}
}

func TestUserPoses(t *testing.T) {
	e := New(10)
	e.SetUserPose(1, UserPose{Hand: vmath.V3(1, 0, 0)})
	e.SetUserPose(2, UserPose{Hand: vmath.V3(2, 0, 0)})
	users := e.AppendUsers(nil)
	if len(users) != 2 {
		t.Fatalf("users = %d", len(users))
	}
	if users[0].ID != 1 || users[1].ID != 2 {
		t.Errorf("users not sorted by id: %+v", users)
	}
	if users[1].Pose.Hand.X != 2 {
		t.Errorf("user 2 hand = %v", users[1].Pose.Hand)
	}
}

func TestRakesSortedByID(t *testing.T) {
	e := New(10)
	for i := 0; i < 5; i++ {
		addRake(t, e)
	}
	rakes := e.Rakes()
	for i := 1; i < len(rakes); i++ {
		if rakes[i].Rake.ID <= rakes[i-1].Rake.ID {
			t.Fatal("rakes not sorted")
		}
	}
}

func TestTimePlayback(t *testing.T) {
	e := New(5)
	ts := e.Time()
	if ts.Playing || ts.Speed != 1 || ts.NumSteps != 5 {
		t.Fatalf("initial time state %+v", ts)
	}
	// Paused: no movement.
	if got := e.AdvanceTime(); got.Current != 0 {
		t.Errorf("advanced while paused: %v", got.Current)
	}
	e.SetPlaying(true)
	if got := e.AdvanceTime(); got.Current != 1 {
		t.Errorf("Current = %v, want 1", got.Current)
	}
	e.SetSpeed(0.5)
	if got := e.AdvanceTime(); got.Current != 1.5 {
		t.Errorf("Current = %v, want 1.5", got.Current)
	}
	// Reverse.
	e.SetSpeed(-1)
	if got := e.AdvanceTime(); got.Current != 0.5 {
		t.Errorf("Current = %v, want 0.5", got.Current)
	}
}

func TestTimeLoopWraps(t *testing.T) {
	e := New(5) // valid times [0, 4]
	e.SetPlaying(true)
	e.SetSpeed(3)
	if err := e.SeekTime(3); err != nil {
		t.Fatal(err)
	}
	got := e.AdvanceTime()
	if got.Current != 2 { // 3 + 3 = 6 -> wrap at 4 -> 2
		t.Errorf("wrapped Current = %v, want 2", got.Current)
	}
	if !got.Playing {
		t.Error("loop mode stopped playback")
	}
	// Backward wrap.
	e.SetSpeed(-3)
	if err := e.SeekTime(1); err != nil {
		t.Fatal(err)
	}
	if got := e.AdvanceTime(); got.Current != 2 { // 1 - 3 = -2 -> +4 = 2
		t.Errorf("backward wrap = %v, want 2", got.Current)
	}
}

func TestTimeClampStops(t *testing.T) {
	e := New(5)
	e.SetLoop(false)
	e.SetPlaying(true)
	e.SetSpeed(10)
	got := e.AdvanceTime()
	if got.Current != 4 || got.Playing {
		t.Errorf("clamp: Current=%v Playing=%v, want 4/false", got.Current, got.Playing)
	}
}

func TestSeekTimeClamps(t *testing.T) {
	e := New(5)
	if err := e.SeekTime(100); err != nil {
		t.Fatal(err)
	}
	if got := e.Time().Current; got != 4 {
		t.Errorf("seek clamp high = %v", got)
	}
	if err := e.SeekTime(-3); err != nil {
		t.Fatal(err)
	}
	if got := e.Time().Current; got != 0 {
		t.Errorf("seek clamp low = %v", got)
	}
}

func TestTimeStateStep(t *testing.T) {
	ts := TimeState{Current: 2.6, NumSteps: 5}
	if ts.Step() != 3 {
		t.Errorf("Step() = %d, want 3", ts.Step())
	}
	ts.Current = -1
	if ts.Step() != 0 {
		t.Errorf("negative Step() = %d", ts.Step())
	}
	ts.Current = 99
	if ts.Step() != 4 {
		t.Errorf("overflow Step() = %d", ts.Step())
	}
}

func TestConcurrentEnvironmentAccess(t *testing.T) {
	e := New(100)
	ids := make([]int32, 8)
	for i := range ids {
		ids[i] = addRake(t, e)
	}
	var wg sync.WaitGroup
	for u := int64(1); u <= 8; u++ {
		wg.Add(1)
		go func(u int64) {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				id := ids[n%len(ids)]
				if err := e.GrabRake(u, id, integrate.GrabCenter); err == nil {
					e.MoveRake(u, id, vmath.V3(float32(u), 0, 0))
					e.ReleaseRake(u, id)
				}
				e.SetUserPose(u, UserPose{Hand: vmath.V3(float32(n), 0, 0)})
				e.AdvanceTime()
				e.Rakes()
			}
		}(u)
	}
	wg.Wait()
	// All rakes must be free at the end.
	for _, snap := range e.Rakes() {
		if snap.Holder != 0 {
			t.Errorf("rake %d still held by %d", snap.Rake.ID, snap.Holder)
		}
	}
}

func TestSetRakeTool(t *testing.T) {
	e := New(10)
	id := addRake(t, e)
	if err := e.SetRakeTool(1, id, integrate.ToolStreakline); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Rake(id)
	if snap.Rake.Tool != integrate.ToolStreakline {
		t.Errorf("tool = %v", snap.Rake.Tool)
	}
	if err := e.SetRakeTool(1, id, integrate.ToolKind(99)); err == nil {
		t.Error("bogus tool accepted")
	}
	if err := e.GrabRake(2, id, integrate.GrabCenter); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRakeTool(1, id, integrate.ToolStreamline); err == nil {
		t.Error("non-holder changed tool of held rake")
	}
}

// Time returns the current playback state.
func (e *Environment) Time() TimeState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.time
}
