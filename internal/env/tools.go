package env

import "fmt"

// Shared field-diagnostic tools: one isosurface, one axis-aligned
// cutting plane, and one vortex-core extractor, promoted to the same
// governed, multi-user path rakes enjoy (VFIVE treats field lines,
// isosurfaces, and slicers as peer tools in one shared space). Unlike
// rakes there is exactly one instance of each tool in the shared
// environment, so the lock model matches steering: a single FCFS
// holder per tool. Unlike steering, however, tool state is
// frame-observable — the holder and parameters ship in every frame's
// tool section — so holder changes bump the whole-environment version
// too, or the server's whole-frame memo would serve stale holder
// bytes. The tools are one table indexed by ToolID-1.

// ToolID names one shared tool; the values match the wire protocol's
// tool kinds.
type ToolID uint8

const (
	ToolIso    ToolID = 1
	ToolPlane  ToolID = 2
	ToolVortex ToolID = 3
)

// NumTools is the length of the tool table.
const NumTools = 3

// String implements fmt.Stringer for error text.
func (t ToolID) String() string {
	switch t {
	case ToolIso:
		return "iso tool"
	case ToolPlane:
		return "plane tool"
	case ToolVortex:
		return "vortex tool"
	}
	return fmt.Sprintf("tool(%d)", uint8(t))
}

// ToolParams are one tool's inputs: whether it renders, the
// computational axis a cutting plane cuts across (0=i, 1=j, 2=k; 0 for
// the other tools), and its value — the isosurface's speed level, the
// plane's fractional position along its axis in [0,1], or the vortex
// core's Q-criterion threshold.
type ToolParams struct {
	Enabled bool
	Axis    uint8
	Value   float32
}

// ToolState is an immutable snapshot of one tool. Version counts
// parameter changes only (the geometry memo key); the holder is
// versioned by the whole-environment counter instead. Versions start at
// 0 = "never touched".
type ToolState struct {
	Params  ToolParams
	Holder  int64
	Version uint64
}

// ToolsState snapshots every shared tool, indexed by ToolID-1.
type ToolsState [NumTools]ToolState

// Active reports whether any tool would appear in a frame: enabled,
// held, or ever touched. A freshly seeded-off environment is inactive,
// which keeps legacy frame bytes identical.
func (s ToolsState) Active() bool {
	for _, t := range s {
		if t.Params.Enabled || t.Holder != 0 || t.Version != 0 {
			return true
		}
	}
	return false
}

// InitTools seeds the tool parameters without counting a change, like
// InitSteer: versions stay 0 so a seeded server's first frame is a
// pure function of the seed.
func (e *Environment) InitTools(p [NumTools]ToolParams) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.tools {
		e.tools[i].Params = p[i]
	}
}

// Tools returns a snapshot of every shared tool.
func (e *Environment) Tools() ToolsState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tools
}

// toolFor returns id's table entry once the FCFS rule lets user act on
// it. Caller holds e.mu.
func (e *Environment) toolFor(user int64, id ToolID) (*ToolState, error) {
	if id == 0 || id > NumTools {
		return nil, fmt.Errorf("env: unknown %v", id)
	}
	t := &e.tools[id-1]
	return t, checkHolder(t.Holder, user, id.String(), 0)
}

// GrabTool locks a tool to a user, first come first served.
// Re-grabbing your own lock is a no-op; taking a free lock is
// frame-observable (the holder ships in the tool section) so it bumps
// the environment version.
func (e *Environment) GrabTool(user int64, id ToolID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.toolFor(user, id)
	if err != nil {
		return err
	}
	if t.Holder != user {
		t.Holder = user
		e.version++
	}
	return nil
}

// ReleaseTool frees a tool lock the user holds.
func (e *Environment) ReleaseTool(user int64, id ToolID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.toolFor(user, id)
	if err != nil {
		return err
	}
	if t.Holder != user {
		return fmt.Errorf("env: user %d does not hold the %v", user, id)
	}
	t.Holder = 0
	e.version++
	return nil
}

// SetTool changes a tool's parameters atomically; a free lock is
// implicitly grabbed-for-the-call (matching free-rake edits and
// SetSteer). A real change bumps the tool version (the geometry memo
// key) and the environment version.
func (e *Environment) SetTool(user int64, id ToolID, p ToolParams) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.toolFor(user, id)
	if err != nil {
		return err
	}
	if t.Params != p {
		t.Params = p
		t.Version++
		e.version++
	}
	return nil
}
