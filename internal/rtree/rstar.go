package rtree

import "sort"

// rstarSplit implements the R*-tree split of Beckmann et al. (SIGMOD
// 1990), split phase only (forced reinsertion is intentionally omitted —
// it changes insert's control flow for a gain our degenerate-rectangle
// workload doesn't show; the ablation benchmarks compare all three
// splits as implemented).
//
// ChooseSplitAxis: for every dimension, sort the entries by lower then by
// upper boundary and sum the margins of all legal two-group
// distributions; the axis with the minimal margin sum wins.
// ChooseSplitIndex: on the winning axis, take the distribution with the
// least overlap between the two groups' MBRs, breaking ties by least
// total area.
//
// It works on slot rectangles and returns the two groups as slot
// indices, each in the winning sort order.
func rstarSplit(rects []Rect, minFill int) (left, right []int) {
	n := len(rects)
	maxK := n - minFill // distributions: first group gets minFill..maxK entries

	sortBy := func(d int, upper bool) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		sort.SliceStable(s, func(i, j int) bool {
			if upper {
				return rects[s[i]].Max[d] < rects[s[j]].Max[d]
			}
			return rects[s[i]].Min[d] < rects[s[j]].Min[d]
		})
		return s
	}

	// prefix/suffix MBRs for one sorted order let every distribution's
	// margin/overlap/area be evaluated in O(1).
	type dists struct {
		order  []int
		prefix []Rect // prefix[i] = MBR of order[:i+1]
		suffix []Rect // suffix[i] = MBR of order[i:]
	}
	build := func(order []int) dists {
		prefix := make([]Rect, n)
		suffix := make([]Rect, n)
		prefix[0] = rects[order[0]]
		for i := 1; i < n; i++ {
			prefix[i] = prefix[i-1].Union(rects[order[i]])
		}
		suffix[n-1] = rects[order[n-1]]
		for i := n - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(rects[order[i]])
		}
		return dists{order: order, prefix: prefix, suffix: suffix}
	}

	bestAxis := -1
	bestMarginSum := 0.0
	var bestSorts [2]dists
	for d := 0; d < Dims; d++ {
		marginSum := 0.0
		ds := [2]dists{build(sortBy(d, false)), build(sortBy(d, true))}
		for _, dd := range ds {
			for k := minFill; k <= maxK; k++ {
				marginSum += dd.prefix[k-1].Margin() + dd.suffix[k].Margin()
			}
		}
		if bestAxis == -1 || marginSum < bestMarginSum {
			bestAxis, bestMarginSum = d, marginSum
			bestSorts = ds
		}
	}

	// ChooseSplitIndex over both sort orders of the winning axis.
	bestOverlap := -1.0
	bestArea := 0.0
	var bestOrder []int
	bestK := 0
	for _, dd := range bestSorts {
		for k := minFill; k <= maxK; k++ {
			l, r := dd.prefix[k-1], dd.suffix[k]
			ov := overlapArea(l, r)
			area := l.Area() + r.Area()
			if bestOverlap < 0 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = ov, area
				bestOrder, bestK = dd.order, k
			}
		}
	}
	return bestOrder[:bestK], bestOrder[bestK:]
}

// overlapArea returns the volume of the intersection of two boxes.
func overlapArea(a, b Rect) float64 {
	v := 1.0
	for d := 0; d < Dims; d++ {
		lo := a.Min[d]
		if b.Min[d] > lo {
			lo = b.Min[d]
		}
		hi := a.Max[d]
		if b.Max[d] < hi {
			hi = b.Max[d]
		}
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}
