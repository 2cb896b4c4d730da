package env

import "fmt"

// TimeState is the dataset playback state: "The time evolution of the
// flow can be sped up, slowed down, run backwards, or stopped
// completely for detailed examination" (§2).
type TimeState struct {
	// Current is the continuous time index in timesteps, in
	// [0, NumSteps-1].
	Current float32
	// Speed is timesteps advanced per frame; negative runs backward.
	Speed float32
	// Playing gates advancement.
	Playing bool
	// Loop wraps time at the dataset ends instead of clamping.
	Loop bool
	// NumSteps is the dataset length.
	NumSteps int
}

// Step returns the integer timestep nearest the current time.
func (t TimeState) Step() int {
	s := int(t.Current + 0.5)
	if s < 0 {
		s = 0
	}
	if s >= t.NumSteps {
		s = t.NumSteps - 1
	}
	return s
}

// SetSpeed sets playback speed in timesteps per frame (negative for
// reverse).
func (e *Environment) SetSpeed(speed float32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.time.Speed != speed {
		e.time.Speed = speed
		e.version++
	}
}

// SetPlaying starts or stops playback.
func (e *Environment) SetPlaying(playing bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.time.Playing != playing {
		e.time.Playing = playing
		e.version++
	}
}

// SetLoop selects wrapping vs clamping at dataset ends.
func (e *Environment) SetLoop(loop bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.time.Loop != loop {
		e.time.Loop = loop
		e.version++
	}
}

// SeekTime jumps to a specific time index, clamped into range.
func (e *Environment) SeekTime(t float32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.time.NumSteps < 1 {
		return fmt.Errorf("env: no timesteps")
	}
	last := float32(e.time.NumSteps - 1)
	if t < 0 {
		t = 0
	}
	if t > last {
		t = last
	}
	if e.time.Current != t {
		e.time.Current = t
		e.version++
	}
	return nil
}

// AdvanceTime moves playback one frame and returns the new state. With
// a single timestep or paused playback it is a no-op.
func (e *Environment) AdvanceTime() TimeState {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &e.time
	if !t.Playing || t.NumSteps < 2 {
		return *t
	}
	before := *t
	defer func() {
		if *t != before {
			e.version++
		}
	}()
	last := float32(t.NumSteps - 1)
	t.Current += t.Speed
	if t.Loop {
		// Wrap into [0, last).
		for t.Current >= last {
			t.Current -= last
		}
		for t.Current < 0 {
			t.Current += last
		}
	} else {
		if t.Current > last {
			t.Current = last
			t.Playing = false
		}
		if t.Current < 0 {
			t.Current = 0
			t.Playing = false
		}
	}
	return *t
}
