// Placement-key math for a partitioned deployment.
//
// A partitioned deployment (internal/cluster) assigns ownership by
// time-window keys for normal segments and spatial-hash cells for
// over-long ones. These helpers are the one implementation of that math,
// so the partition map, the router and the per-node ownership guards
// agree bit-for-bit. Inside a node the index is one R-tree; the keys are
// placement, not indexing.
package index

import (
	"math"

	"fovr/internal/geo"
)

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

// SpatialCell returns the spatial-hash cell (0..n-1) of an over-long
// segment anchored at p: FNV-1a over the coordinate bit patterns. n must
// be positive.
func SpatialCell(p geo.Point, n int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [2]uint64{math.Float64bits(p.Lat), math.Float64bits(p.Lng)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return int(h % uint64(n))
}

// OverLong reports whether a segment spanning [startMillis, endMillis]
// is placed by spatial cell instead of time window.
func OverLong(startMillis, endMillis, windowMillis int64) bool {
	return endMillis-startMillis > windowMillis
}
