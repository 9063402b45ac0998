//go:build race

package idset

// raceEnabled: the race runtime is free to change what an allocation
// costs, so heap pins skip under it and CI takes them in a race-off step.
const raceEnabled = true
