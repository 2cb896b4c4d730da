//go:build !race

package render_test

const raceSlowdown = 1
