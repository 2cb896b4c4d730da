//go:build !race

package datasets

const underRace = false
