// Package env holds the shared virtual-environment state the remote
// host owns in the distributed windtunnel: the set of rakes, who holds
// each one, dataset time control, and the head/hand poses of every
// participating user (§5.1).
//
// Because "control over all objects in the virtual environment take[s]
// place on the remote system", all mutation goes through methods here,
// invoked from dlib handlers; conflicts resolve first-come-first-
// served — "if two users grab the same rake, the user who grabbed it
// first gets control ... until the first user lets the rake go."
//
//vw:deterministic
package env

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/integrate"
	"repro/internal/vmath"
)

// UserPose is one user's tracked state, rebroadcast to every
// workstation so users can see each other in the environment.
type UserPose struct {
	Head vmath.Mat4 // head position/orientation from the BOOM
	Hand vmath.Vec3 // glove position
	// Gesture is the user's recognized hand gesture (see internal/vr);
	// stored as a small int to keep env decoupled from vr.
	Gesture uint8
}

// errLocked is returned when a user tries to act on a rake, the
// steering or a shared tool another user holds.
type errLocked struct {
	Object string // "rake 3", "steering", "iso tool"
	Holder int64
}

// Error implements error.
func (e *errLocked) Error() string {
	return fmt.Sprintf("env: %s held by user %d", e.Object, e.Holder)
}

// checkHolder is the FCFS rule every lock shares: a user may act on a
// free object or on one they hold; anyone else gets errLocked naming
// the holder. rake is the object's rake id (ids start at 1), or 0 for
// the singletons; the name is formatted only on refusal.
func checkHolder(holder, user int64, object string, rake int32) error {
	if holder == 0 || holder == user {
		return nil
	}
	if rake != 0 {
		object = fmt.Sprintf("%s %d", object, rake)
	}
	return &errLocked{Object: object, Holder: holder}
}

// rakeState pairs a rake with its lock.
type rakeState struct {
	rake   *integrate.Rake
	holder int64 // session id, 0 = free
	grab   integrate.GrabPoint
	// version counts mutations of the geometry-relevant inputs (P0,
	// P1, NumSeeds, Tool) so the server can memoize per-rake geometry.
	version uint64
}

// Environment is the authoritative shared state.
type Environment struct {
	mu sync.Mutex

	rakes    map[int32]*rakeState
	nextRake int32
	users    map[int64]UserPose
	time     TimeState
	// Live-steering state (see steer.go) and the shared tool table
	// (see tools.go): parameters, FCFS holder and change counter each.
	steer SteerState
	tools ToolsState
	// version counts every observable state change (rakes, locks,
	// poses, time). A frame computed at version V can be replayed
	// verbatim while the version holds — the server's whole-frame
	// memoization key.
	version uint64
}

// Version returns the environment's state-change counter. It increases
// on every mutation that a FrameReply could observe; equal versions
// mean the shared scene is unchanged.
func (e *Environment) Version() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// New returns an empty environment configured for a dataset with
// numSteps timesteps.
func New(numSteps int) *Environment {
	return &Environment{
		rakes: make(map[int32]*rakeState),
		users: make(map[int64]UserPose),
		time: TimeState{
			NumSteps: numSteps,
			Speed:    1,
			Playing:  false,
			Loop:     true,
		},
	}
}

// AddRake creates a rake and returns its id.
func (e *Environment) AddRake(p0, p1 vmath.Vec3, numSeeds int, tool integrate.ToolKind) (int32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextRake++
	r, err := integrate.NewRake(e.nextRake, p0, p1, numSeeds, tool)
	if err != nil {
		e.nextRake--
		return 0, err
	}
	e.rakes[r.ID] = &rakeState{rake: r, version: 1}
	e.version++
	return r.ID, nil
}

// rakeFor returns rake id once the FCFS rule lets user act on it.
// Caller holds e.mu.
func (e *Environment) rakeFor(user int64, id int32) (*rakeState, error) {
	rs, ok := e.rakes[id]
	if !ok {
		return nil, fmt.Errorf("env: no rake %d", id)
	}
	return rs, checkHolder(rs.holder, user, "rake", id)
}

// RemoveRake deletes a rake; only the holder (or anyone, if free) may
// remove it.
func (e *Environment) RemoveRake(user int64, id int32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.rakeFor(user, id); err != nil {
		return err
	}
	delete(e.rakes, id)
	e.version++
	return nil
}

// GrabRake locks a rake to a user at the given grab point. Grabbing a
// rake you already hold re-points the grab. Grabbing a held rake
// fails: first come, first served.
func (e *Environment) GrabRake(user int64, id int32, gp integrate.GrabPoint) error {
	if gp == integrate.GrabNone {
		return fmt.Errorf("env: grab with GrabNone")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, err := e.rakeFor(user, id)
	if err != nil {
		return err
	}
	if rs.holder != user || rs.grab != gp {
		e.version++
	}
	rs.holder = user
	rs.grab = gp
	return nil
}

// ReleaseRake frees a rake the user holds.
func (e *Environment) ReleaseRake(user int64, id int32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, err := e.rakeFor(user, id)
	if err != nil {
		return err
	}
	if rs.holder != user {
		return fmt.Errorf("env: user %d does not hold rake %d", user, id)
	}
	rs.holder = 0
	rs.grab = integrate.GrabNone
	e.version++
	return nil
}

// ReleaseAll frees every rake — and the steering and tool locks — the
// user holds and forgets the user's pose; called when a workstation
// disconnects so its locks cannot wedge the shared session.
func (e *Environment) ReleaseAll(user int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := false
	for _, rs := range e.rakes {
		if rs.holder == user {
			rs.holder = 0
			rs.grab = integrate.GrabNone
			changed = true
		}
	}
	if e.steer.Holder == user {
		e.steer.Holder = 0
	}
	// Tool holders ship in frames, so freeing one is a visible change.
	for i := range e.tools {
		if e.tools[i].Holder == user {
			e.tools[i].Holder = 0
			changed = true
		}
	}
	if _, ok := e.users[user]; ok {
		changed = true
	}
	delete(e.users, user)
	if changed {
		e.version++
	}
}

// MoveRake moves the grabbed point of a rake the user holds.
func (e *Environment) MoveRake(user int64, id int32, to vmath.Vec3) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, err := e.rakeFor(user, id)
	if err != nil {
		return err
	}
	if rs.holder != user {
		return fmt.Errorf("env: rake %d not grabbed", id)
	}
	if err := rs.rake.MoveGrab(rs.grab, to); err != nil {
		return err
	}
	rs.version++
	e.version++
	return nil
}

// SetRakeSeeds changes the seed count of a rake the user holds (or a
// free rake).
func (e *Environment) SetRakeSeeds(user int64, id int32, numSeeds int) error {
	if numSeeds < 1 {
		return fmt.Errorf("env: seeds %d < 1", numSeeds)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, err := e.rakeFor(user, id)
	if err != nil {
		return err
	}
	if rs.rake.NumSeeds != numSeeds {
		rs.rake.NumSeeds = numSeeds
		rs.version++
		e.version++
	}
	return nil
}

// SetRakeTool changes the visualization tool of a rake the user holds
// (or a free rake) — "The type and number of seedpoints in a
// particular rake is determined by the user" (Sec 2.1).
func (e *Environment) SetRakeTool(user int64, id int32, tool integrate.ToolKind) error {
	if tool != integrate.ToolStreamline && tool != integrate.ToolParticlePath &&
		tool != integrate.ToolStreakline {
		return fmt.Errorf("env: unknown tool %d", tool)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, err := e.rakeFor(user, id)
	if err != nil {
		return err
	}
	if rs.rake.Tool != tool {
		rs.rake.Tool = tool
		rs.version++
		e.version++
	}
	return nil
}

// RakeSnapshot is an immutable copy of one rake's state for transfer
// to workstations.
type RakeSnapshot struct {
	Rake   integrate.Rake
	Holder int64
	Grab   integrate.GrabPoint
	// Version is the rake's mutation counter: unchanged version means
	// the geometry inputs (endpoints, seed count, tool) are unchanged.
	Version uint64
}

// Rakes returns snapshots of all rakes, ordered by id.
func (e *Environment) Rakes() []RakeSnapshot {
	return e.AppendRakes(nil)
}

// AppendRakes appends snapshots of all rakes to dst, ordered by id,
// and returns the extended slice. Passing a recycled dst[:0] lets
// per-frame callers avoid the allocation.
func (e *Environment) AppendRakes(dst []RakeSnapshot) []RakeSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := len(dst)
	for _, rs := range e.rakes {
		dst = append(dst, RakeSnapshot{
			Rake: *rs.rake, Holder: rs.holder, Grab: rs.grab, Version: rs.version,
		})
	}
	out := dst[base:]
	slices.SortFunc(out, func(a, b RakeSnapshot) int { return cmp.Compare(a.Rake.ID, b.Rake.ID) })
	return dst
}

// Rake returns a snapshot of one rake.
//
//vw:testonly
func (e *Environment) Rake(id int32) (RakeSnapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, ok := e.rakes[id]
	if !ok {
		return RakeSnapshot{}, false
	}
	return RakeSnapshot{Rake: *rs.rake, Holder: rs.holder, Grab: rs.grab, Version: rs.version}, true
}

// SetUserPose records a user's tracked head and hand. Re-recording an
// identical pose is not a state change (the environment version holds,
// so the server can keep serving the memoized frame).
func (e *Environment) SetUserPose(user int64, pose UserPose) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.users[user]; !ok || old != pose {
		e.version++
	}
	e.users[user] = pose
}

// UserSnapshot is one user's pose paired with their session id.
type UserSnapshot struct {
	ID   int64
	Pose UserPose
}

// AppendUsers appends a snapshot of every user to dst, ordered by
// session id, and returns the extended slice. Sorted, like Rakes, so
// that frames built from two snapshots of the same state encode
// byte-identically.
func (e *Environment) AppendUsers(dst []UserSnapshot) []UserSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := len(dst)
	for id, p := range e.users {
		dst = append(dst, UserSnapshot{ID: id, Pose: p})
	}
	out := dst[base:]
	slices.SortFunc(out, func(a, b UserSnapshot) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}
