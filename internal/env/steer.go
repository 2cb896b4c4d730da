package env

import "fmt"

// SteerParams are the live flow parameters a workstation can steer:
// inlet velocity, Reynolds number, and the cylinder's tip/base taper
// ratio. Like rake geometry, they live on the remote host and all
// mutation goes through the environment.
type SteerParams struct {
	InflowU  float32
	Reynolds float32
	Taper    float32
}

// SteerState is an immutable snapshot of the steering parameters, the
// lock holder (0 = free), and the change counter the live producer
// applies against (0 = "never steered").
type SteerState struct {
	Params  SteerParams
	Holder  int64
	Version uint64
}

// InitSteer seeds the steering parameters without counting a change:
// the producer's version stays 0 so a run nobody steers is bit-exact
// against the offline dataset.
func (e *Environment) InitSteer(p SteerParams) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.steer.Params = p
}

// Steer returns a snapshot of the steering state.
func (e *Environment) Steer() SteerState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.steer
}

// GrabSteer locks steering to a user, first come first served — the
// same arbitration as rake grabs. Re-grabbing your own lock is a
// no-op. Neither grab nor release is frame-observable state, so the
// whole-environment version does not move.
func (e *Environment) GrabSteer(user int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := checkHolder(e.steer.Holder, user, "steering", 0); err != nil {
		return err
	}
	e.steer.Holder = user
	return nil
}

// ReleaseSteer frees the steering lock the user holds.
func (e *Environment) ReleaseSteer(user int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.steer.Holder != user {
		return fmt.Errorf("env: user %d does not hold steering", user)
	}
	e.steer.Holder = 0
	return nil
}

// SetSteer changes all three steering parameters atomically; a free
// lock is implicitly grabbed-for-the-call (matching free-rake edits).
// A real change bumps both the steering version (the producer's apply
// trigger) and the whole-environment version, so Wire 2.0 delta
// shadows see a new frame version and stay byte-deterministic per
// (client, round) across the parameter flip.
func (e *Environment) SetSteer(user int64, p SteerParams) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := checkHolder(e.steer.Holder, user, "steering", 0); err != nil {
		return err
	}
	if e.steer.Params != p {
		e.steer.Params = p
		e.steer.Version++
		e.version++
	}
	return nil
}
