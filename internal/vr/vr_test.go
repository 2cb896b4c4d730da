package vr

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vmath"
)

func TestBoomJointLimits(t *testing.T) {
	b := NewBoom()
	var a [NumBoomJoints]float32
	if err := b.SetAngles(a); err != nil {
		t.Fatalf("zero pose rejected: %v", err)
	}
	a[basePitch] = 5 // far beyond the 1.2 limit
	if err := b.SetAngles(a); err == nil {
		t.Error("out-of-limit angle accepted")
	}
	// A rejected set must not corrupt state.
	if b.Angles()[basePitch] != 0 {
		t.Error("failed SetAngles mutated state")
	}
}

func TestBoomNeutralPose(t *testing.T) {
	b := NewBoom()
	// All angles zero: head sits BaseHeight up and Arm1+Arm2 along -Z.
	p := b.HeadPosition()
	want := vmath.V3(0, b.BaseHeight, -(b.Arm1 + b.Arm2))
	if !p.ApproxEqual(want, 1e-5) {
		t.Errorf("neutral head at %v, want %v", p, want)
	}
}

func TestBoomYawSweep(t *testing.T) {
	b := NewBoom()
	var a [NumBoomJoints]float32
	a[BaseYaw] = math.Pi / 2
	if err := b.SetAngles(a); err != nil {
		t.Fatal(err)
	}
	// Yaw 90 degrees: the arm that pointed -Z now points -X.
	p := b.HeadPosition()
	want := vmath.V3(-(b.Arm1 + b.Arm2), b.BaseHeight, 0)
	if !p.ApproxEqual(want, 1e-4) {
		t.Errorf("yawed head at %v, want %v", p, want)
	}
}

func TestBoomHeadMatrixInvertsToView(t *testing.T) {
	b := NewBoom()
	var a [NumBoomJoints]float32
	a[BaseYaw], a[basePitch], a[ElbowPitch] = 0.4, 0.2, 0.7
	a[wristYaw], a[wristPitch], a[wristRoll] = -0.3, 0.5, 0.2
	if err := b.SetAngles(a); err != nil {
		t.Fatal(err)
	}
	view, err := b.ViewMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// View must map the head position to the origin.
	got := view.TransformPoint(b.HeadPosition())
	if got.Len() > 1e-4 {
		t.Errorf("view(headPos) = %v, want origin", got)
	}
}

func TestBoomEyeOffsets(t *testing.T) {
	b := NewBoom()
	l, r := b.EyeOffsets(0.064)
	if d := l.Dist(r); absf(d-0.064) > 1e-5 {
		t.Errorf("eye separation = %v", d)
	}
}

func TestGestureRecognition(t *testing.T) {
	g, err := NewGlove(DefaultCalibration(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g.PoseFist()
	if got := g.Recognize(); got != GestureFist {
		t.Errorf("fist pose = %v", got)
	}
	g.poseOpen()
	if got := g.Recognize(); got != GestureOpen {
		t.Errorf("open pose = %v", got)
	}
	g.PosePoint()
	if got := g.Recognize(); got != gesturePoint {
		t.Errorf("point pose = %v", got)
	}
	// Half-curled everything: unknown.
	var half FingerBends
	for f := 0; f < numFingers; f++ {
		half[f][0], half[f][1] = 0.8, 0.8
	}
	g.setBends(half)
	if got := g.Recognize(); got != gestureUnknown {
		t.Errorf("ambiguous pose = %v", got)
	}
}

func TestCalibrationPerUser(t *testing.T) {
	// A user whose "flat" has residual curl: raw bends that would read
	// as half-curled with default calibration still read open.
	var c Calibration
	for f := 0; f < numFingers; f++ {
		c.Flat[f][0], c.Flat[f][1] = 0.5, 0.5
		c.Fist[f][0], c.Fist[f][1] = 1.4, 1.4
	}
	g, err := NewGlove(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.setBends(c.Flat)
	if got := g.Recognize(); got != GestureOpen {
		t.Errorf("calibrated flat = %v", got)
	}
	g.setBends(c.Fist)
	if got := g.Recognize(); got != GestureFist {
		t.Errorf("calibrated fist = %v", got)
	}
}

func TestCalibrationValidate(t *testing.T) {
	var c Calibration // fist == flat == 0
	if err := c.validate(); err == nil {
		t.Error("degenerate calibration accepted")
	}
	if _, err := NewGlove(c, nil); err == nil {
		t.Error("NewGlove accepted degenerate calibration")
	}
}

func TestPolhemusRangeLimit(t *testing.T) {
	p := NewPolhemus(vmath.V3(0, 0, 0), 2, 0.001, 1)
	if _, _, err := p.sense(vmath.V3(5, 0, 0), vmath.QuatIdentity()); err != errOutOfRange {
		t.Errorf("far hand err = %v, want ErrOutOfRange", err)
	}
	if _, _, err := p.sense(vmath.V3(1, 0, 0), vmath.QuatIdentity()); err != nil {
		t.Errorf("near hand err = %v", err)
	}
}

func TestPolhemusNoiseGrowsWithDistance(t *testing.T) {
	near := NewPolhemus(vmath.V3(0, 0, 0), 100, 0.01, 7)
	far := NewPolhemus(vmath.V3(0, 0, 0), 100, 0.01, 7)
	var nearErr, farErr float64
	const n = 500
	for i := 0; i < n; i++ {
		pn, _, _ := near.sense(vmath.V3(0.5, 0, 0), vmath.QuatIdentity())
		pf, _, _ := far.sense(vmath.V3(50, 0, 0), vmath.QuatIdentity())
		nearErr += float64(pn.Dist(vmath.V3(0.5, 0, 0)))
		farErr += float64(pf.Dist(vmath.V3(50, 0, 0)))
	}
	if farErr/n <= nearErr/n {
		t.Errorf("noise did not grow with distance: near %v far %v", nearErr/n, farErr/n)
	}
}

func TestPolhemusDeterministic(t *testing.T) {
	a := NewPolhemus(vmath.V3(0, 0, 0), 10, 0.01, 42)
	b := NewPolhemus(vmath.V3(0, 0, 0), 10, 0.01, 42)
	pa, _, _ := a.sense(vmath.V3(1, 1, 1), vmath.QuatIdentity())
	pb, _, _ := b.sense(vmath.V3(1, 1, 1), vmath.QuatIdentity())
	if pa != pb {
		t.Error("same seed produced different noise")
	}
}

func TestScriptedUserCycle(t *testing.T) {
	u, err := NewScriptedUser(3)
	if err != nil {
		t.Fatal(err)
	}
	var sawFist, sawOpen bool
	var lastHead vmath.Mat4
	headMoved := false
	for i := 0; i < u.CyclePeriod*2; i++ {
		p := u.Step()
		switch p.Gesture {
		case GestureFist:
			sawFist = true
		case GestureOpen:
			sawOpen = true
		}
		if i > 0 && !p.Head.ApproxEqual(lastHead, 1e-7) {
			headMoved = true
		}
		lastHead = p.Head
		if !p.Hand.IsFinite() {
			t.Fatalf("frame %d: non-finite hand %v", i, p.Hand)
		}
	}
	if !sawFist || !sawOpen {
		t.Errorf("gesture cycle incomplete: fist=%v open=%v", sawFist, sawOpen)
	}
	if !headMoved {
		t.Error("head never moved")
	}
	if u.Frame() != u.CyclePeriod*2 {
		t.Errorf("frame count = %d", u.Frame())
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func BenchmarkBoomHeadMatrix(b *testing.B) {
	boom := NewBoom()
	var a [NumBoomJoints]float32
	a[BaseYaw] = 0.5
	boom.SetAngles(a)
	for i := 0; i < b.N; i++ {
		_ = boom.headMatrix()
	}
}

// TestGloveFiberNoiseDeterministic pins the glove-side determinism
// invariant vwlint's wallclock analyzer enforces structurally: fiber
// jitter comes from an injected seeded stream, so same-seed gloves
// driven through the same pose sequence report byte-identical readings,
// and a different seed reports a different stream.
func TestGloveFiberNoiseDeterministic(t *testing.T) {
	run := func(seed int64) []FingerBends {
		g, err := NewGlove(DefaultCalibration(), NewPolhemus(vmath.V3(0, 1, 0), 2.5, 0.002, seed))
		if err != nil {
			t.Fatal(err)
		}
		g.setFiberNoise(0.01, seed)
		var out []FingerBends
		for i := 0; i < 50; i++ {
			switch i % 3 {
			case 0:
				g.poseOpen()
			case 1:
				g.PoseFist()
			default:
				g.PosePoint()
			}
			out = append(out, g.Bends())
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: same-seed gloves diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise streams")
	}
	// Noise must never flip a scripted gesture: the fist pose still
	// recognizes as a fist through the jitter.
	g, err := NewGlove(DefaultCalibration(), NewPolhemus(vmath.V3(0, 1, 0), 2.5, 0.002, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.setFiberNoise(0.01, 1)
	for i := 0; i < 200; i++ {
		g.PoseFist()
		if got := g.Recognize(); got != GestureFist {
			t.Fatalf("iteration %d: noisy fist recognized as %v", i, got)
		}
	}
}

// Bends returns the recorded (post-noise) raw readings.
func (g *Glove) Bends() FingerBends { return g.bends }

// Frame returns how many frames the script has run.
func (u *ScriptedUser) Frame() int { return u.frame }

// Angles returns the current joint angles.
func (b *Boom) Angles() [NumBoomJoints]float32 { return b.angles }

// ViewMatrix returns the inverse head matrix — the transform
// concatenated onto the graphics stack so the scene renders from the
// user's point of view (§3).
func (b *Boom) ViewMatrix() (vmath.Mat4, error) {
	inv, ok := b.headMatrix().Inverted()
	if !ok {
		return vmath.Mat4{}, fmt.Errorf("vr: singular head matrix")
	}
	return inv, nil
}

// EyeOffsets returns the left and right eye positions for a given
// interpupillary distance, for stereo rendering.
func (b *Boom) EyeOffsets(ipd float32) (left, right vmath.Vec3) {
	m := b.headMatrix()
	half := ipd / 2
	return m.TransformPoint(vmath.V3(-half, 0, 0)), m.TransformPoint(vmath.V3(half, 0, 0))
}
