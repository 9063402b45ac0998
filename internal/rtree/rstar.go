package rtree

import (
	"cmp"
	"slices"
)

// The R*-tree split of Beckmann et al. (SIGMOD 1990), split phase only,
// is the tree's one split (forced reinsertion is intentionally omitted —
// it changes insert's control flow for a gain our degenerate-rectangle
// workload doesn't show).
//
// ChooseSplitAxis: for every dimension, sort the slots by lower then by
// upper boundary and sum the margins of all legal two-group
// distributions; the axis with the minimal margin sum wins.
// ChooseSplitIndex: on the winning axis, take the distribution with the
// least overlap between the two groups' MBRs, breaking ties by least
// total area.
//
// The margins are summed in commensurable units. Longitude and latitude
// stay in stored degrees; time, stored in milliseconds, is weighted by
// kappa degrees per millisecond. Unweighted, a one-hour extent outweighs
// a whole city's width by five orders of magnitude, every split cuts
// time, and leaves come out as thin time slabs that each span a city
// block — nodes a distance-steered walk can never skip, because it
// prunes by spatial distance alone. The cost of a window query over a
// node grows with the node's extent plus the question's, per dimension,
// so nodes pay off when they are shaped like the questions. The
// questions this index serves reach r+R = 120–400 m across a 1–24 h
// window; kappa = 1e-10 makes an hour of extent weigh like ~40 m (about
// 3.6e-4° of latitude), inside that band. Each of kappa/3 and 3*kappa
// also scans fewer leaf entries than Guttman's quadratic split did on
// every bench question shape (TestSplitMetricBand), so the choice is not
// a knife edge. Only ChooseSplitAxis is weighted: rectangles,
// ChooseSubtree and ChooseSplitIndex's overlap and area are unchanged.
const kappa = 1e-10

// marginWeight converts each dimension's extent to degrees for
// ChooseSplitAxis.
var marginWeight = [Dims]float64{1, 1, kappa}

// splitMargin is r's margin in commensurable units (see kappa).
func splitMargin(r *Rect) float64 {
	m := 0.0
	for d := range Dims {
		m += (r.Max[d] - r.Min[d]) * marginWeight[d]
	}
	return m
}

// splitScratch is the working memory of node splits. The tree's writer
// is serialized, so one per tree serves every split, grown to the widest
// node seen and reused: a split allocates nothing but the two halves.
type splitScratch struct {
	rects []Rect       // a leaf's slot rectangles, derived by the bounds function
	axes  [2]axisSorts // R*: the axis being scored and the best one so far
	slots []int        // R*: the winning order as slot indices
}

// axisSorts is one axis's R* sort orders, by lower and by upper boundary,
// with the prefix and suffix MBRs that let every distribution's margin,
// overlap and area be evaluated in O(1).
type axisSorts struct {
	order  [2][]slotKey
	prefix [2][]Rect // prefix[u][i] = MBR of order[u][:i+1]
	suffix [2][]Rect // suffix[u][i] = MBR of order[u][i:]
	// orders is how many of the two orders are distinct: 1 when every
	// slot is flat on the axis (a leaf's longitude and latitude), whose
	// upper-boundary order is then the lower-boundary one.
	orders int
}

// slotKey is one slot under one sort order: its boundary on the axis.
type slotKey struct {
	key  float64
	slot int
}

func bySlotKey(a, b slotKey) int { return cmp.Compare(a.key, b.key) }

// sortAxis fills a with the sort orders of rects on dimension d.
func (a *axisSorts) sortAxis(rects []Rect, d int) {
	n := len(rects)
	a.orders = 1
	for i := range rects {
		if rects[i].Min[d] != rects[i].Max[d] {
			a.orders = 2
			break
		}
	}
	for u := range a.orders {
		o := slices.Grow(a.order[u][:0], n)[:n]
		for i := range rects {
			k := rects[i].Min[d]
			if u == 1 {
				k = rects[i].Max[d]
			}
			o[i] = slotKey{key: k, slot: i}
		}
		slices.SortStableFunc(o, bySlotKey)
		p := slices.Grow(a.prefix[u][:0], n)[:n]
		s := slices.Grow(a.suffix[u][:0], n)[:n]
		p[0] = rects[o[0].slot]
		for i := 1; i < n; i++ {
			p[i] = p[i-1].Union(rects[o[i].slot])
		}
		s[n-1] = rects[o[n-1].slot]
		for i := n - 2; i >= 0; i-- {
			s[i] = s[i+1].Union(rects[o[i].slot])
		}
		a.order[u], a.prefix[u], a.suffix[u] = o, p, s
	}
}

// marginSum is ChooseSplitAxis' score of the sorted axis: the weighted
// margins of every legal distribution of both orders. A flat axis's
// upper order is its lower one, so that order counts twice.
func (a *axisSorts) marginSum(minFill int) float64 {
	n := len(a.order[0])
	var sums [2]float64
	for u := range a.orders {
		for k := minFill; k <= n-minFill; k++ {
			sums[u] += splitMargin(&a.prefix[u][k-1]) + splitMargin(&a.suffix[u][k])
		}
	}
	if a.orders == 1 {
		sums[1] = sums[0]
	}
	return sums[0] + sums[1]
}

// rstar splits slot rectangles the R* way and returns the two groups as
// slot indices, each in the winning sort order. The returned slices are
// scratch, valid until the next split.
func (s *splitScratch) rstar(rects []Rect, minFill int) (left, right []int) {
	cur, best := &s.axes[0], &s.axes[1]
	bestMarginSum := 0.0
	for d := range Dims {
		cur.sortAxis(rects, d)
		if m := cur.marginSum(minFill); d == 0 || m < bestMarginSum {
			bestMarginSum = m
			cur, best = best, cur
		}
	}

	// ChooseSplitIndex over the winning axis's orders; the upper order of
	// a flat axis would repeat the lower one's distributions, which never
	// win a tie.
	n := len(rects)
	bestOverlap, bestArea := -1.0, 0.0
	bestU, bestK := 0, 0
	for u := range best.orders {
		for k := minFill; k <= n-minFill; k++ {
			l, r := &best.prefix[u][k-1], &best.suffix[u][k]
			ov := overlapArea(l, r)
			area := l.Area() + r.Area()
			if bestOverlap < 0 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = ov, area
				bestU, bestK = u, k
			}
		}
	}
	s.slots = s.slots[:0]
	for _, o := range best.order[bestU] {
		s.slots = append(s.slots, o.slot)
	}
	return s.slots[:bestK], s.slots[bestK:]
}

// overlapArea returns the volume of the intersection of two boxes.
func overlapArea(a, b *Rect) float64 {
	v := 1.0
	for d := 0; d < Dims; d++ {
		lo := max(a.Min[d], b.Min[d])
		hi := min(a.Max[d], b.Max[d])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}
