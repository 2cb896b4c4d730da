package vr

import (
	"math"

	"repro/internal/vmath"
)

// ScriptedUser drives a boom and glove through a deterministic motion
// so examples, tests, and benchmarks can exercise the full input path
// without a human: the head sweeps slowly around the scene while the
// hand reaches out, grabs (fist), drags, and releases (open) in a
// cycle.
type ScriptedUser struct {
	Boom  *Boom
	Glove *Glove
	// GrabTarget is where the hand hovers during the grab phase.
	GrabTarget vmath.Vec3
	// CyclePeriod is the grab/drag/release cycle length in frames.
	CyclePeriod int

	frame int
}

// NewScriptedUser assembles a user with default devices.
func NewScriptedUser(seed int64) (*ScriptedUser, error) {
	tracker := NewPolhemus(vmath.V3(0, 1, 0), 2.5, 0.002, seed)
	glove, err := NewGlove(DefaultCalibration(), tracker)
	if err != nil {
		return nil, err
	}
	// Fiber jitter small enough never to flip a gesture threshold, on a
	// stream decorrelated from the tracker's.
	glove.setFiberNoise(0.01, seed+1)
	return &ScriptedUser{
		Boom:        NewBoom(),
		Glove:       glove,
		GrabTarget:  vmath.V3(0.3, 1.0, -0.5),
		CyclePeriod: 120,
	}, nil
}

// Pose is one frame of user input.
type Pose struct {
	Head    vmath.Mat4
	Hand    vmath.Vec3
	Gesture Gesture
}

// Step advances one frame and returns the sensed input. The head orbit
// respects the boom joint limits; the hand follows the grab cycle
// through the noisy tracker.
func (u *ScriptedUser) Step() Pose {
	u.frame++
	t := float32(u.frame)

	// Head: slow yaw sweep with gentle nod.
	angles := [NumBoomJoints]float32{
		0.8 * float32(math.Sin(float64(t)*0.01)),  // base yaw
		0.3 * float32(math.Sin(float64(t)*0.007)), // base pitch
		0.5, // elbow
		0.2 * float32(math.Sin(float64(t)*0.013)), // wrist yaw
		0, 0,
	}
	// The scripted angles stay inside the default limits by
	// construction; ignore the error to keep Step infallible.
	_ = u.Boom.SetAngles(angles)

	// Hand: reach toward the target, circle while "dragging".
	phase := u.frame % u.CyclePeriod
	var truePos vmath.Vec3
	var gesture Gesture
	switch {
	case phase < u.CyclePeriod/4: // reach, open hand
		f := float32(phase) / float32(u.CyclePeriod/4)
		truePos = vmath.V3(0, 1, 0).Lerp(u.GrabTarget, f)
		u.Glove.poseOpen()
	case phase < 3*u.CyclePeriod/4: // fist, drag in a circle
		drag := float32(phase-u.CyclePeriod/4) * 0.05
		truePos = u.GrabTarget.Add(vmath.V3(
			0.1*float32(math.Cos(float64(drag))),
			0.1*float32(math.Sin(float64(drag))),
			0))
		u.Glove.PoseFist()
	default: // release and retreat
		f := float32(phase-3*u.CyclePeriod/4) / float32(u.CyclePeriod/4)
		truePos = u.GrabTarget.Lerp(vmath.V3(0, 1, 0), f)
		u.Glove.poseOpen()
	}
	gesture = u.Glove.Recognize()

	sensed, _, err := u.Glove.Tracker.sense(truePos, vmath.QuatIdentity())
	if err != nil {
		// Out of tracker range: the glove reports the last legal pose
		// as real Polhemus setups effectively did; use the source.
		sensed = u.Glove.Tracker.Source
	}
	return Pose{Head: u.Boom.headMatrix(), Hand: sensed, Gesture: gesture}
}
