//go:build race

package datasets

// underRace is set when the race detector instruments the build: the
// 64x96x24 pin then takes minutes instead of seconds, so it is skipped.
const underRace = true
