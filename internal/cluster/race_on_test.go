//go:build race

package cluster_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so exact allocation pins on pooled paths cannot hold.
const raceEnabled = true
