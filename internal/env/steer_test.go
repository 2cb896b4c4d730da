package env

import (
	"errors"
	"testing"
)

func TestSteerFCFSLock(t *testing.T) {
	e := New(4)
	e.InitSteer(SteerParams{InflowU: 1, Reynolds: 400, Taper: 0.5})
	if v := e.Version(); v != 0 {
		t.Fatalf("InitSteer bumped the env version to %d", v)
	}
	if st := e.Steer(); st.Version != 0 || st.Holder != 0 {
		t.Fatalf("initial steer state = %+v", st)
	}

	if err := e.GrabSteer(1); err != nil {
		t.Fatal(err)
	}
	// FCFS: the second user bounces with the holder identified.
	err := e.GrabSteer(2)
	var locked *ErrLocked
	if !errors.As(err, &locked) || locked.Holder != 1 || locked.Object != "steering" {
		t.Fatalf("second grab: %v, want ErrLocked{steering, 1}", err)
	}
	// Re-grabbing your own lock is fine.
	if err := e.GrabSteer(1); err != nil {
		t.Fatal(err)
	}
	// Only the holder steers.
	if err := e.SetSteer(2, SteerParams{InflowU: 2, Reynolds: 300, Taper: 1}); err == nil {
		t.Fatal("non-holder steered through the lock")
	}
	if err := e.SetSteer(1, SteerParams{InflowU: 2, Reynolds: 300, Taper: 1}); err != nil {
		t.Fatal(err)
	}
	st := e.Steer()
	if st.Version != 1 || st.Params.InflowU != 2 {
		t.Fatalf("after set: %+v", st)
	}
	if v := e.Version(); v != 1 {
		t.Fatalf("steer change must bump the env version, got %d", v)
	}
	// Setting identical params is not a change.
	if err := e.SetSteer(1, st.Params); err != nil {
		t.Fatal(err)
	}
	if got := e.Steer().Version; got != 1 {
		t.Fatalf("no-op set bumped version to %d", got)
	}

	if err := e.ReleaseSteer(2); err == nil {
		t.Fatal("non-holder released the lock")
	}
	if err := e.ReleaseSteer(1); err != nil {
		t.Fatal(err)
	}
	// Free lock: SetSteer implicitly grabs for the call.
	if err := e.SetSteer(2, SteerParams{InflowU: 3, Reynolds: 500, Taper: 0.7}); err != nil {
		t.Fatal(err)
	}
	if got := e.Steer().Version; got != 2 {
		t.Fatalf("version after free-lock set = %d, want 2", got)
	}
}

func TestSteerReleaseAllFreesLock(t *testing.T) {
	e := New(4)
	if err := e.GrabSteer(7); err != nil {
		t.Fatal(err)
	}
	before := e.Version()
	e.ReleaseAll(7) // the disconnect path
	if h := e.Steer().Holder; h != 0 {
		t.Fatalf("steering still held by %d after ReleaseAll", h)
	}
	if err := e.GrabSteer(8); err != nil {
		t.Fatalf("grab after disconnect release: %v", err)
	}
	// Lock churn is not frame-observable state.
	if v := e.Version(); v != before {
		t.Fatalf("lock-only churn moved env version %d -> %d", before, v)
	}
}
