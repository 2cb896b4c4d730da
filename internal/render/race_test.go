//go:build race

package render_test

// raceSlowdown scales wall-clock limits: the detector instruments
// every framebuffer store.
const raceSlowdown = 20
