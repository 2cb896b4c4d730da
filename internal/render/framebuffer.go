// Package render is the software rendering substrate standing in for
// the SGI VGX pipeline: a z-buffered line/point rasterizer over a
// framebuffer, with the exact red/blue writemask anaglyph scheme §3
// describes — left eye in shades of pure red, right eye in shades of
// pure blue drawn under a writemask that protects the red bit planes,
// with the z-buffer (but not the color planes) cleared between eyes.
//
// A frame is a pure function of the scene and the head pose: the
// golden framebuffer hashes (golden_test.go) hold it to that.
//
//vw:deterministic
package render

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// Framebuffer is an RGB color buffer with a z-buffer. Depth follows
// OpenGL convention: smaller z is nearer after projection, the buffer
// clears to +Inf.
type Framebuffer struct {
	W, H int
	// Pix is packed RGB, 3 bytes per pixel, row-major from the top.
	Pix []uint8
	// Z is the depth buffer.
	Z []float32
}

// NewFramebuffer allocates a cleared framebuffer.
func NewFramebuffer(w, h int) (*Framebuffer, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("render: bad framebuffer size %dx%d", w, h)
	}
	f := &Framebuffer{W: w, H: h, Pix: make([]uint8, w*h*3), Z: make([]float32, w*h)}
	f.ClearZ()
	return f, nil
}

// Clear fills the color planes and resets depth.
func (f *Framebuffer) Clear(r, g, b uint8) { f.clearRows(0, f.H, r, g, b) }

// ClearZ resets only the z-buffer — "the Z-buffer bit planes are
// cleared between the drawing of the left- and right-eye images, but
// the color (red) bit planes are not" (§3).
func (f *Framebuffer) ClearZ() { f.clearZRows(0, f.H) }

// clearRows is Clear for rows [y0, y1).
func (f *Framebuffer) clearRows(y0, y1 int, r, g, b uint8) {
	pix := f.Pix[y0*f.W*3 : y1*f.W*3]
	if r|g|b == 0 {
		clear(pix)
	} else if len(pix) > 0 {
		pix[0], pix[1], pix[2] = r, g, b
		fill(pix, 3)
	}
	f.clearZRows(y0, y1)
}

// clearZRows is ClearZ for rows [y0, y1).
func (f *Framebuffer) clearZRows(y0, y1 int) {
	if z := f.Z[y0*f.W : y1*f.W]; len(z) > 0 {
		z[0] = float32(math.Inf(1))
		fill(z, 1)
	}
}

// fill repeats the first n elements of s through the rest of it,
// doubling the copied run each pass: a few large memmoves instead of a
// store per element.
func fill[T any](s []T, n int) {
	for n < len(s) {
		n += copy(s[n:], s[:n])
	}
}

// ChannelMask selects which color planes a draw may write — the VGX
// "writemask".
type ChannelMask uint8

// Mask bits.
const (
	MaskR ChannelMask = 1 << iota
	MaskG
	MaskB
	MaskAll = MaskR | MaskG | MaskB
)

// Color is an RGB intensity.
type Color struct {
	R, G, B uint8
}

// At returns the pixel color at (x, y).
func (f *Framebuffer) At(x, y int) Color {
	pi := (y*f.W + x) * 3
	return Color{f.Pix[pi], f.Pix[pi+1], f.Pix[pi+2]}
}

// CountLit returns how many pixels have any channel above the
// threshold — used by figure tests to assert something was drawn.
func (f *Framebuffer) CountLit(threshold uint8) int {
	var n int
	for i := 0; i < len(f.Pix); i += 3 {
		if f.Pix[i] > threshold || f.Pix[i+1] > threshold || f.Pix[i+2] > threshold {
			n++
		}
	}
	return n
}

// WritePPM writes the color planes as a binary PPM (P6) image.
func (f *Framebuffer) WritePPM(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", f.W, f.H); err != nil {
		return fmt.Errorf("render: write ppm header: %w", err)
	}
	if _, err := bw.Write(f.Pix); err != nil {
		return fmt.Errorf("render: write ppm pixels: %w", err)
	}
	return bw.Flush()
}
