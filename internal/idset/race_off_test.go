//go:build !race

package idset

const raceEnabled = false
