//go:build race

package index

// RaceEnabled: the race runtime is free to change what an allocation
// costs, and sync.Pool sheds buffers at random under it, so heap and
// allocation pins skip under it and CI takes them in a race-off step.
// Exported for the external heap test.
const RaceEnabled = true
