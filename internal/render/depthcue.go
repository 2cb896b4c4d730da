package render

// Depth cueing: the VGX attenuated line intensity with distance so
// nearer geometry reads brighter — essential for judging 3-D structure
// in a monochrome-per-eye display. When enabled, a pixel's color is
// scaled by a factor that falls linearly from 1 at the near plane
// (NDC z = -1) to CueFloor at the far plane (NDC z = +1).

// EnableDepthCue turns depth cueing on with the given floor intensity
// fraction in [0, 1). A NaN floor is no floor.
func (r *Renderer) EnableDepthCue(floor float32) {
	if !(floor >= 0) {
		floor = 0
	}
	if floor >= 1 {
		floor = 0.99
	}
	r.cueOn = true
	r.cueFloor = floor
}

// DisableDepthCue turns depth cueing off.
func (r *Renderer) DisableDepthCue() { r.cueOn = false }

// shade attenuates the ink for NDC depth z in [-1, 1]. A NaN depth,
// which the raster loop's range test lets through, shades as the near
// plane: converting NaN to uint8 is left to the implementation.
func (k *ink) shade(z float32) {
	// t = 0 at near, 1 at far.
	t := (z + 1) / 2
	if !(t >= 0) {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	f := 1 - t*k.cue
	for j, v := range k.base {
		k.val[j] = uint8(float32(v) * f)
	}
}
