package query

// MergeRanked merges per-partition top-N result lists into the global
// top-N, appended to dst, preserving the exact contract SearchCtx
// enforces: ascending DistanceMeters with ids breaking ties, truncated
// to max (max <= 0 keeps everything). Every input list must already be
// in that order — each is some SearchCtx's answer — so the merge only
// ever compares the lists' heads. Because every list was truncated no
// earlier than max, the merged prefix is identical to what a single
// index over the union would return — the property the cluster
// router's differential suite pins.
func MergeRanked(dst []Ranked, lists [][]Ranked, max int) []Ranked {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if max > 0 && n > max {
		n = max
	}
	// One cursor per list; partitions are few, so the smallest head is
	// found by looking at all of them. The cursors live in the lists
	// themselves: a local copy of the slice headers is re-sliced.
	var own [8][]Ranked
	heads := append(own[:0], lists...)
	for ; n > 0; n-- {
		best := -1
		for i, l := range heads {
			if len(l) == 0 {
				continue
			}
			if best < 0 || rankedBefore(&l[0], &heads[best][0]) {
				best = i
			}
		}
		dst = append(dst, heads[best][0])
		heads[best] = heads[best][1:]
	}
	return dst
}

// rankedBefore is the ranking order: distance, then id.
func rankedBefore(a, b *Ranked) bool {
	if a.DistanceMeters != b.DistanceMeters {
		return a.DistanceMeters < b.DistanceMeters
	}
	return a.Entry.ID < b.Entry.ID
}
