// Package vr simulates the paper's virtual-environment hardware: the
// BOOM counterweighted stereo display (§3), the VPL DataGlove II with
// its Polhemus magnetic tracker, and gesture recognition. The real
// devices are long gone; these models produce the same signals the
// windtunnel consumed — six yoke joint angles folded into a 4x4 head
// matrix, hand position/orientation with tracker noise, and finger
// bends interpreted as gestures.
//
//vw:deterministic
package vr

import (
	"fmt"
	"math"

	"repro/internal/vmath"
)

// BoomJoint names the six yoke joints. "Optical encoders on the joints
// of the yoke assembly are continuously read by the host computer
// providing six angles."
type BoomJoint int

const (
	// BaseYaw rotates the whole yoke about the vertical post.
	BaseYaw BoomJoint = iota
	// basePitch tilts the first arm.
	basePitch
	// ElbowPitch bends the second arm relative to the first.
	ElbowPitch
	// wristYaw, wristPitch, wristRoll orient the display head.
	wristYaw
	wristPitch
	wristRoll

	// NumBoomJoints is the joint count.
	NumBoomJoints = 6
)

// Boom models the counterweighted six-joint yoke. The head matrix is
// built "by six successive translations and rotations" (§3).
type Boom struct {
	// Arm1 and Arm2 are the two link lengths (meters).
	Arm1, Arm2 float32
	// BaseHeight is the height of the first joint above the floor.
	BaseHeight float32
	// Limits bounds each joint angle (radians); the yoke permits head
	// motion "with six degrees of freedom within a limited range".
	Limits [NumBoomJoints][2]float32

	angles [NumBoomJoints]float32
}

// NewBoom returns a boom with the default geometry and joint limits.
func NewBoom() *Boom {
	b := &Boom{Arm1: 0.9, Arm2: 0.9, BaseHeight: 1.2}
	b.Limits = [NumBoomJoints][2]float32{
		{-math.Pi, math.Pi},         // base yaw: full circle
		{-1.2, 1.2},                 // base pitch
		{-2.4, 2.4},                 // elbow
		{-math.Pi, math.Pi},         // wrist yaw
		{-1.4, 1.4},                 // wrist pitch
		{-math.Pi / 2, math.Pi / 2}, // wrist roll
	}
	return b
}

// SetAngles sets all six joint angles, returning an error naming the
// first joint outside its limits (the encoders cannot report angles
// the mechanism cannot reach).
func (b *Boom) SetAngles(a [NumBoomJoints]float32) error {
	for j, v := range a {
		if v < b.Limits[j][0] || v > b.Limits[j][1] {
			return fmt.Errorf("vr: joint %d angle %g outside [%g, %g]",
				j, v, b.Limits[j][0], b.Limits[j][1])
		}
	}
	b.angles = a
	return nil
}

// headMatrix returns the display head's position/orientation as a 4x4
// matrix via forward kinematics: base post up, yaw, pitch, out along
// arm 1, elbow pitch, out along arm 2, then the three wrist rotations.
func (b *Boom) headMatrix() vmath.Mat4 {
	a := b.angles
	m := vmath.Translate(0, b.BaseHeight, 0)
	m = m.Mul(vmath.RotateY(a[BaseYaw]))
	m = m.Mul(vmath.RotateX(a[basePitch]))
	m = m.Mul(vmath.Translate(0, 0, -b.Arm1))
	m = m.Mul(vmath.RotateX(a[ElbowPitch]))
	m = m.Mul(vmath.Translate(0, 0, -b.Arm2))
	m = m.Mul(vmath.RotateY(a[wristYaw]))
	m = m.Mul(vmath.RotateX(a[wristPitch]))
	m = m.Mul(vmath.RotateZ(a[wristRoll]))
	return m
}

// HeadPosition returns the display head position in world space.
func (b *Boom) HeadPosition() vmath.Vec3 {
	return b.headMatrix().TransformPoint(vmath.Vec3{})
}
