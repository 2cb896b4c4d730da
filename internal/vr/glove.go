package vr

import (
	"fmt"
	"math/rand"

	"repro/internal/vmath"
)

// Gesture is a recognized hand shape. The windtunnel grabs rakes with
// a fist and releases by opening the hand.
type Gesture uint8

const (
	// gestureUnknown is anything the recognizer cannot classify.
	gestureUnknown Gesture = iota
	// GestureOpen is a flat hand: release.
	GestureOpen
	// GestureFist is a closed hand: grab.
	GestureFist
	// gesturePoint is index extended, others curled: select/menu.
	gesturePoint
)

func (g Gesture) String() string {
	switch g {
	case GestureOpen:
		return "open"
	case GestureFist:
		return "fist"
	case gesturePoint:
		return "point"
	default:
		return "unknown"
	}
}

// Fingers indexes the five digits.
const (
	thumb = iota
	indexFinger
	middleFinger
	ringFinger
	littleFinger
	numFingers
)

// FingerBends holds the knuckle and middle joint bend of each finger,
// as the DataGlove's "specially treated optical fibers" measure them
// (radians, 0 = straight).
type FingerBends [numFingers][2]float32

// Calibration maps raw fiber readings to normalized bends. "The glove
// requires recalibration for each user" (§3): flat and fist reference
// poses are recorded per user.
type Calibration struct {
	Flat FingerBends
	Fist FingerBends
}

// DefaultCalibration assumes ideal fibers: flat = 0, fist = 1.6 rad at
// every joint.
func DefaultCalibration() Calibration {
	var c Calibration
	for f := 0; f < numFingers; f++ {
		c.Fist[f][0] = 1.6
		c.Fist[f][1] = 1.6
	}
	return c
}

// validate rejects calibrations whose fist pose does not clearly
// differ from flat.
func (c Calibration) validate() error {
	for f := 0; f < numFingers; f++ {
		for j := 0; j < 2; j++ {
			if c.Fist[f][j]-c.Flat[f][j] < 0.2 {
				return fmt.Errorf("vr: calibration finger %d joint %d has range %g < 0.2",
					f, j, c.Fist[f][j]-c.Flat[f][j])
			}
		}
	}
	return nil
}

// normalize maps a raw reading to [0, 1] (0 = flat, 1 = fist).
func (c Calibration) normalize(f, j int, raw float32) float32 {
	lo, hi := c.Flat[f][j], c.Fist[f][j]
	v := (raw - lo) / (hi - lo)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Glove is the instrumented glove: finger bends plus the Polhemus
// tracker giving hand position and orientation.
type Glove struct {
	Calib   Calibration
	Tracker *Polhemus

	bends FingerBends

	// noise perturbs raw fiber readings, modeling the optical fibers'
	// measurement jitter; nil reads are noiseless. Always a privately
	// seeded generator — never the global math/rand — so glove input
	// replays identically for a given seed.
	noise    *rand.Rand
	noiseStd float32
}

// NewGlove returns a glove with the given calibration and tracker.
func NewGlove(c Calibration, tracker *Polhemus) (*Glove, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &Glove{Calib: c, Tracker: tracker}, nil
}

// setFiberNoise gives the fibers measurement jitter: every subsequent
// raw reading is perturbed by N(0, std) radians. Two gloves configured
// with the same seed and driven through the same pose sequence report
// identical readings, so noisy glove input stays replayable.
func (g *Glove) setFiberNoise(std float32, seed int64) {
	g.noiseStd = std
	g.noise = rand.New(rand.NewSource(seed))
}

// noisy applies the configured fiber jitter to one raw reading set.
func (g *Glove) noisy(b FingerBends) FingerBends {
	if g.noise == nil || g.noiseStd == 0 {
		return b
	}
	for f := 0; f < numFingers; f++ {
		for j := 0; j < 2; j++ {
			b[f][j] += float32(g.noise.NormFloat64()) * g.noiseStd
		}
	}
	return b
}

// setBends records raw fiber readings.
func (g *Glove) setBends(b FingerBends) { g.bends = g.noisy(b) }

// fingerCurl returns the mean normalized bend of one finger.
func (g *Glove) fingerCurl(f int) float32 {
	return (g.Calib.normalize(f, 0, g.bends[f][0]) + g.Calib.normalize(f, 1, g.bends[f][1])) / 2
}

// Recognize classifies the current bends. "These finger joint angles
// are combined and interpreted as gestures" (§3). Thumb is ignored —
// DataGlove thumb readings were notoriously unreliable.
func (g *Glove) Recognize() Gesture {
	const curled, straight = 0.6, 0.35
	idx := g.fingerCurl(indexFinger)
	others := [3]float32{g.fingerCurl(middleFinger), g.fingerCurl(ringFinger), g.fingerCurl(littleFinger)}
	allCurled := idx > curled
	allStraight := idx < straight
	othersCurled := true
	for _, c := range others {
		if c <= curled {
			othersCurled = false
		}
		if c >= straight {
			allStraight = false
		}
		if c <= curled {
			allCurled = false
		}
	}
	switch {
	case allCurled:
		return GestureFist
	case allStraight:
		return GestureOpen
	case idx < straight && othersCurled:
		return gesturePoint
	default:
		return gestureUnknown
	}
}

// PoseFist sets raw bends for a grab using the calibration's fist
// reference — test and script helper.
func (g *Glove) PoseFist() { g.setBends(g.Calib.Fist) }

// poseOpen sets raw bends for an open hand.
func (g *Glove) poseOpen() { g.setBends(g.Calib.Flat) }

// PosePoint sets raw bends for a point (index flat, others fisted).
func (g *Glove) PosePoint() {
	b := g.Calib.Fist
	b[indexFinger] = g.Calib.Flat[indexFinger]
	g.setBends(b)
}

// Polhemus models the 3Space magnetic tracker: absolute position and
// orientation relative to a source, with noise that grows with
// distance and a hard range limit — "the polhemus tracker has limited
// accuracy and is sensitive to the ambient electromagnetic
// environment" (§3).
type Polhemus struct {
	// Source is the transmitter location.
	Source vmath.Vec3
	// Range is the maximum usable distance from the source.
	Range float32
	// NoiseStd is the positional noise sigma at 1 unit distance; noise
	// scales linearly with distance.
	NoiseStd float32
	// rng drives the noise; deterministic given a seed.
	rng *rand.Rand
}

// NewPolhemus returns a tracker with a deterministic noise stream.
func NewPolhemus(source vmath.Vec3, rangeLimit, noiseStd float32, seed int64) *Polhemus {
	return &Polhemus{
		Source: source, Range: rangeLimit, NoiseStd: noiseStd,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// errOutOfRange reports a hand outside the tracker's usable volume.
var errOutOfRange = fmt.Errorf("vr: hand outside tracker range")

// sense returns the sensed position and orientation for the true hand
// pose, with distance-scaled noise, or errOutOfRange.
func (p *Polhemus) sense(truePos vmath.Vec3, trueOrient vmath.Quat) (vmath.Vec3, vmath.Quat, error) {
	d := truePos.Dist(p.Source)
	if d > p.Range {
		return vmath.Vec3{}, vmath.QuatIdentity(), errOutOfRange
	}
	sigma := p.NoiseStd * (1 + d)
	sensed := truePos.Add(vmath.V3(
		p.gauss(sigma), p.gauss(sigma), p.gauss(sigma)))
	// Orientation noise: a small random-axis rotation.
	axis := vmath.V3(p.gauss(1), p.gauss(1), p.gauss(1))
	if axis.Len() < 1e-6 {
		axis = vmath.V3(0, 1, 0)
	}
	jitter := vmath.AxisAngle(axis, p.gauss(sigma*0.1))
	return sensed, jitter.Mul(trueOrient).Normalized(), nil
}

func (p *Polhemus) gauss(sigma float32) float32 {
	return float32(p.rng.NormFloat64()) * sigma
}
