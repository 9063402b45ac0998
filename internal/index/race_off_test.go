//go:build !race

package index

const RaceEnabled = false
