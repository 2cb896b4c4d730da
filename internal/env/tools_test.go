package env

import (
	"errors"
	"testing"
)

func TestToolGrabFCFS(t *testing.T) {
	e := New(10)
	if err := e.GrabTool(1, ToolIso); err != nil {
		t.Fatal(err)
	}
	// Re-grabbing your own lock is a no-op, not an error.
	if err := e.GrabTool(1, ToolIso); err != nil {
		t.Fatalf("self re-grab: %v", err)
	}
	// A rival bounces with a typed error naming the holder.
	err := e.GrabTool(2, ToolIso)
	var locked *errLocked
	if !errors.As(err, &locked) || locked.Holder != 1 || locked.Object != "iso tool" {
		t.Fatalf("rival grab: %v", err)
	}
	// Rival parameter changes bounce too.
	if err := e.SetTool(2, ToolIso, ToolParams{Enabled: true, Value: 1}); err == nil {
		t.Fatal("rival SetTool accepted while held")
	}
	// The holder edits freely; release frees it for the rival.
	if err := e.SetTool(1, ToolIso, ToolParams{Enabled: true, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.ReleaseTool(1, ToolIso); err != nil {
		t.Fatal(err)
	}
	if err := e.GrabTool(2, ToolIso); err != nil {
		t.Fatalf("grab after release: %v", err)
	}
	// Releasing a lock you don't hold is an error.
	if err := e.ReleaseTool(1, ToolIso); err == nil {
		t.Fatal("release by non-holder accepted")
	}
	// So is naming a tool the table does not have.
	for _, id := range []ToolID{0, NumTools + 1} {
		if e.GrabTool(1, id) == nil || e.ReleaseTool(1, id) == nil || e.SetTool(1, id, ToolParams{}) == nil {
			t.Fatalf("tool %d accepted", id)
		}
	}
}

func TestToolVersionsCountParameterChanges(t *testing.T) {
	e := New(10)
	if v0 := e.Tools(); v0 != (ToolsState{}) {
		t.Fatalf("fresh env has touched tools: %+v", v0)
	}
	// A real change bumps exactly the touched tool's version.
	if err := e.SetTool(1, ToolIso, ToolParams{Enabled: true, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	v1 := e.Tools()
	if v1[ToolIso-1].Version != 1 || v1[ToolPlane-1].Version != 0 {
		t.Fatalf("iso change: %+v", v1)
	}
	// Setting identical parameters is a no-op: no version bump, so the
	// server's geometry memo stays warm.
	if err := e.SetTool(1, ToolIso, ToolParams{Enabled: true, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	if v := e.Tools(); v[ToolIso-1].Version != 1 {
		t.Fatalf("no-op set bumped the version: %+v", v)
	}
	// Grab/release are holder changes, not parameter changes: the tool
	// version (the memo key) must not move.
	if err := e.GrabTool(2, ToolPlane); err != nil {
		t.Fatal(err)
	}
	if err := e.ReleaseTool(2, ToolPlane); err != nil {
		t.Fatal(err)
	}
	if v := e.Tools(); v[ToolPlane-1].Version != 0 {
		t.Fatalf("grab/release bumped the plane version: %+v", v)
	}
	// But holder changes are frame-observable: the whole-environment
	// version must move so the frame memo re-encodes. The vortex tool
	// has no grab command on the wire (toggles are one-shot), but its
	// lock is the same table entry as the others'.
	envBefore := e.Version()
	if err := e.GrabTool(3, ToolVortex); err != nil {
		t.Fatal(err)
	}
	if e.Version() == envBefore {
		t.Fatal("grab did not bump the environment version")
	}
}

func TestReleaseAllFreesToolLocks(t *testing.T) {
	e := New(10)
	if err := e.GrabTool(7, ToolIso); err != nil {
		t.Fatal(err)
	}
	if err := e.GrabTool(7, ToolPlane); err != nil {
		t.Fatal(err)
	}
	vortex := ToolParams{Enabled: true, Value: 0.01}
	if err := e.SetTool(7, ToolVortex, vortex); err != nil {
		t.Fatal(err)
	}
	// Another user's locks are untouched by user 7's departure.
	if err := e.GrabTool(8, ToolVortex); err != nil {
		t.Fatal(err)
	}
	e.ReleaseAll(7)
	ts := e.Tools()
	if ts[ToolIso-1].Holder != 0 || ts[ToolPlane-1].Holder != 0 {
		t.Fatalf("departure left tools held: %+v", ts)
	}
	if ts[ToolVortex-1].Holder != 8 {
		t.Fatalf("departure released another user's vortex lock: %d", ts[ToolVortex-1].Holder)
	}
	// Parameters survive the departure — the tool stays enabled for the
	// room, only the lock comes free.
	if ts[ToolVortex-1].Params != vortex {
		t.Fatalf("departure reset tool params: %+v", ts[ToolVortex-1].Params)
	}
}

func TestToolsActiveSticky(t *testing.T) {
	e := New(10)
	if e.Tools().Active() {
		t.Fatal("fresh environment reports active tools")
	}
	if err := e.SetTool(1, ToolIso, ToolParams{Enabled: true, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !e.Tools().Active() {
		t.Fatal("enabled tool not active")
	}
	// Disabling leaves the section active (version > 0): clients that
	// saw the tool must keep seeing its state to observe the disable.
	if err := e.SetTool(1, ToolIso, ToolParams{}); err != nil {
		t.Fatal(err)
	}
	if !e.Tools().Active() {
		t.Fatal("Active must be sticky once a tool was ever touched")
	}
}

func TestInitToolsSeedsWithoutVersionBump(t *testing.T) {
	e := New(10)
	seed := [NumTools]ToolParams{
		{Enabled: true, Value: 0.8},
		{Enabled: true, Axis: 1, Value: 0.5},
		{Enabled: true, Value: 0.01},
	}
	e.InitTools(seed)
	ts := e.Tools()
	for i, tool := range ts {
		if tool != (ToolState{Params: seed[i]}) {
			t.Fatalf("tool %d seeded as %+v, want params %+v and version 0", i, tool, seed[i])
		}
	}
	// A seeded environment is active (enabled params), so frames carry
	// the section from round one.
	if !ts.Active() {
		t.Fatal("seeded tools not active")
	}
}
