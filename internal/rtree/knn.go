package rtree

import "fovr/internal/minheap"

// Neighbor is one nearest-neighbour result: the stored item plus its
// squared distance from the query point.
type Neighbor[T any] struct {
	Rect  Rect
	Data  T
	Dist2 float64
}

// NearestOptions shape a WeightedNearest search beyond the point and k.
type NearestOptions[T any] struct {
	// Weights scale each dimension of the squared Euclidean metric; a
	// weight of zero removes the dimension from the metric entirely.
	Weights [Dims]float64
	// MaxDist2 > 0 bounds the search: nothing farther is ever queued,
	// which keeps filtered kNN from expanding the whole tree when fewer
	// than k items qualify.
	MaxDist2 float64
	// Within, when non-nil, restricts the search to items whose rectangle
	// intersects it, and subtrees that miss it are pruned before they are
	// queued. It is how a zero-weight dimension (time, for the FoV index)
	// still bounds the traversal instead of only filtering what it found.
	Within *Rect
	// Keep, when non-nil, rejects items without counting them toward k.
	// It receives a pointer into the tree and must not write through it.
	Keep func(*T) bool
	// Before, when non-nil, orders items at equal distance (return true
	// when a must be reported first); without it ties are arbitrary.
	Before func(a, b *T) bool
}

// knnItem is a priority-queue element: an unexpanded subtree or a leaf
// slot, ordered by the lower bound on its distance.
type knnItem[T any] struct {
	dist2 float64
	node  *node[T]  // non-nil: subtree to expand
	ent   *entry[T] // non-nil: leaf slot, read in place
}

// knnLess orders the queue. Ties on dist2 pop subtrees before entries —
// a subtree at distance d may still hold an item at d that must precede
// an already queued one — and entries in before order.
func knnLess[T any](before func(a, b *T) bool) func(a, b *knnItem[T]) bool {
	return func(a, b *knnItem[T]) bool {
		if a.dist2 != b.dist2 {
			return a.dist2 < b.dist2
		}
		if a.node != nil || b.node != nil {
			return a.node != nil && b.node == nil
		}
		return before != nil && before(&a.ent.data, &b.ent.data)
	}
}

// knnHeapCap bounds the queue buffers the pool keeps: a search that grew
// past it (a dense hotspot inside the bound) returns its buffer to the
// collector instead.
const knnHeapCap = 1 << 14

// unitWeights makes the weighted metric the plain squared Euclidean one.
var unitWeights = [Dims]float64{1, 1, 1}

// Nearest returns up to k stored items closest to the query point in
// index space (squared Euclidean distance over all dimensions), nearest
// first. It is the classic best-first branch-and-bound search: a subtree
// is only expanded when its bounding box is closer than every unreported
// candidate, so the scan touches the minimal set of nodes.
//
// Callers whose dimensions have incomparable units (degrees vs seconds)
// should scale their coordinates before indexing or use WeightedNearest.
func (t *Tree[T]) Nearest(p [Dims]float64, k int) []Neighbor[T] {
	return t.NearestFunc(p, k, nil)
}

// NearestFunc is Nearest with an optional filter; items rejected by the
// filter are skipped without counting toward k.
func (t *Tree[T]) NearestFunc(p [Dims]float64, k int, keep func(*T) bool) []Neighbor[T] {
	return t.WeightedNearest(p, k, NearestOptions[T]{Weights: unitWeights, Keep: keep})
}

// WeightedNearest is Nearest under the metric, bound, pruning box,
// filter and tie order of o. The FoV index uses it to rank by geographic
// distance while treating time as a pure filter, bounded at the radius
// of view (beyond which coverage is impossible).
func (t *Tree[T]) WeightedNearest(p [Dims]float64, k int, o NearestOptions[T]) []Neighbor[T] {
	return weightedNearest(t.root, t.size, &t.stats, p, k, o)
}

func weightedNearest[T any](root *node[T], size int, st *stats, p [Dims]float64, k int, o NearestOptions[T]) []Neighbor[T] {
	if k <= 0 || size == 0 {
		return nil
	}
	w := o.Weights
	dist := func(r *Rect) float64 {
		sum := 0.0
		for d := 0; d < Dims; d++ {
			if w[d] == 0 {
				continue
			}
			v := p[d]
			var diff float64
			if v < r.Min[d] {
				diff = r.Min[d] - v
			} else if v > r.Max[d] {
				diff = v - r.Max[d]
			}
			diff *= w[d]
			sum += diff * diff
		}
		return sum
	}
	less := knnLess(o.Before)
	buf, _ := st.knnHeaps.Get().(*[]knnItem[T])
	if buf == nil {
		buf = new([]knnItem[T])
	}
	h := minheap.Push((*buf)[:0], knnItem[T]{node: root}, less)
	out := make([]Neighbor[T], 0, k)
	var c searchCounters
	for len(h) > 0 && len(out) < k {
		var it knnItem[T]
		it, h = minheap.Pop(h, less)
		if e := it.ent; e != nil {
			if o.Keep == nil || o.Keep(&e.data) {
				out = append(out, Neighbor[T]{Rect: e.rect, Data: e.data, Dist2: it.dist2})
			}
			continue
		}
		n := it.node
		c.nodes++
		if n.leaf {
			c.leafs += int64(len(n.entries))
		}
		for i := range n.entries {
			e := &n.entries[i]
			if o.Within != nil && !e.rect.intersects(o.Within) {
				continue
			}
			d2 := dist(&e.rect)
			if o.MaxDist2 > 0 && d2 > o.MaxDist2 {
				continue
			}
			if n.leaf {
				h = minheap.Push(h, knnItem[T]{dist2: d2, ent: e}, less)
			} else {
				h = minheap.Push(h, knnItem[T]{dist2: d2, node: e.child}, less)
			}
		}
	}
	st.recordSearch(c)
	if cap(h) <= knnHeapCap {
		// Pop zeroes the slot it vacates, so only the unpopped items are
		// left to clear: a pooled buffer must not pin the nodes of a
		// snapshot that has since been superseded.
		clear(h)
		*buf = h[:0]
		st.knnHeaps.Put(buf)
	}
	return out
}
