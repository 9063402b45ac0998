// Placement-key math for a partitioned deployment.
//
// A partitioned deployment (internal/cluster) assigns ownership by
// time-window keys, and places over-long segments apart. These helpers
// are the one implementation of that math, so the partition map, the
// router and the per-node ownership guards agree bit-for-bit. Inside a
// node the index is one R-tree; the keys are placement, not indexing.
package index

import "math"

// DefaultShardWindowMillis is one hour — long relative to typical
// segment durations (seconds to minutes), short enough that a day of
// data spreads over 24 windows.
const DefaultShardWindowMillis = 3_600_000

// WindowKey returns the time-window key of a segment starting at
// startMillis under a window width of windowMillis. Division is floored,
// so pre-epoch captures map to the correct (negative) window.
func WindowKey(startMillis, windowMillis int64) int64 {
	q := startMillis / windowMillis
	if startMillis%windowMillis != 0 && (startMillis < 0) != (windowMillis < 0) {
		q--
	}
	return q
}

// WindowKeyRange returns the inclusive window-key range a query over
// [startMillis, endMillis] must visit: a window holds segments starting
// within it with duration <= window, so only windows
// floor(start/W)-1 .. floor(end/W) qualify.
func WindowKeyRange(startMillis, endMillis, windowMillis int64) (lo, hi int64) {
	lo = WindowKey(startMillis, windowMillis)
	if lo > math.MinInt64 {
		lo--
	}
	hi = WindowKey(endMillis, windowMillis)
	return lo, hi
}

// OverLong reports whether a segment spanning [startMillis, endMillis]
// is longer than a window, so that no window key bounds it: a
// partitioned deployment places it on its first partition.
func OverLong(startMillis, endMillis, windowMillis int64) bool {
	return endMillis-startMillis > windowMillis
}
