package rtree

import (
	"fmt"
	"math"
	"sync/atomic"
)

// SplitAlgorithm selects the node-split heuristic used on overflow.
type SplitAlgorithm int

const (
	// QuadraticSplit is Guttman's quadratic-cost split (the default and
	// the classic choice for mixed workloads).
	QuadraticSplit SplitAlgorithm = iota
	// LinearSplit is Guttman's linear-cost split: cheaper to run,
	// usually looser groupings.
	LinearSplit
	// RStarSplit is the R*-tree topological split (Beckmann et al. 1990,
	// split phase only): margin-minimal axis choice, overlap-minimal
	// distribution. Costs more per split, usually yields better trees.
	RStarSplit
)

func (s SplitAlgorithm) String() string {
	switch s {
	case QuadraticSplit:
		return "quadratic"
	case LinearSplit:
		return "linear"
	case RStarSplit:
		return "rstar"
	default:
		return fmt.Sprintf("SplitAlgorithm(%d)", int(s))
	}
}

// Options tune the tree shape.
type Options struct {
	// MaxEntries is M, the node capacity. Must be >= 4.
	MaxEntries int
	// MinEntries is m, the minimum fill; 2 <= m <= M/2. Zero selects
	// the standard 40% fill.
	MinEntries int
	// Split selects the overflow heuristic.
	Split SplitAlgorithm
}

// DefaultOptions matches common R-tree deployments: M = 16, m = 6.
var DefaultOptions = Options{MaxEntries: 16}

func (o Options) withDefaults() (Options, error) {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultOptions.MaxEntries
	}
	if o.MaxEntries < 4 {
		return o, fmt.Errorf("rtree: MaxEntries %d < 4", o.MaxEntries)
	}
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
		if o.MinEntries < 2 {
			o.MinEntries = 2
		}
	}
	if o.MinEntries < 2 || o.MinEntries > o.MaxEntries/2 {
		return o, fmt.Errorf("rtree: MinEntries %d out of [2, MaxEntries/2=%d]",
			o.MinEntries, o.MaxEntries/2)
	}
	switch o.Split {
	case QuadraticSplit, LinearSplit, RStarSplit:
	default:
		return o, fmt.Errorf("rtree: unknown split algorithm %d", o.Split)
	}
	return o, nil
}

// entry is one slot of a node: a bounding rectangle plus either a child
// pointer (internal nodes) or a data item (leaves).
type entry[T any] struct {
	rect  Rect
	child *node[T]
	data  T
}

// node is a tree node. All leaves are at the same depth.
//
// gen is the write generation the node belongs to. A node whose gen
// equals the tree's current writeGen is exclusively owned by the writer
// and may be mutated in place; any other node may be shared with a
// published Snapshot and must be cloned before mutation (copy-on-write).
type node[T any] struct {
	leaf    bool
	gen     uint64
	entries []entry[T]
}

func (n *node[T]) mbr() Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Tree is an R-tree mapping rectangles to values of type T.
// The zero value is not usable; construct with New.
type Tree[T any] struct {
	opts   Options
	root   *node[T]
	height int // number of levels; 1 = root is a leaf
	size   int
	packed bool // built by BulkLoad: tail nodes may be under-filled
	stats  stats

	// writeGen is the current write generation: nodes stamped with it are
	// writer-owned, everything older is frozen (possibly shared with a
	// published Snapshot). Publish bumps it, freezing the whole tree.
	writeGen uint64
	// snap is the most recently published read-only snapshot. Readers load
	// it without any coordination with the writer; mutators require the
	// caller's usual external serialization.
	snap atomic.Pointer[Snapshot[T]]
}

// New returns an empty tree, or an error for invalid options.
func New[T any](opts Options) (*Tree[T], error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree[T]{
		opts:   o,
		root:   &node[T]{leaf: true},
		height: 1,
	}
	t.Publish() // a tree always has a (possibly empty) snapshot
	return t, nil
}

// MustNew is New for known-good options (used by package-internal callers
// and tests).
func MustNew[T any](opts Options) *Tree[T] {
	t, err := New[T](opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of stored items.
func (t *Tree[T]) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree[T]) Height() int { return t.height }

// Options returns the tree's effective options.
func (t *Tree[T]) Options() Options { return t.opts }

// Insert adds an item with the given bounding rectangle.
func (t *Tree[T]) Insert(r Rect, data T) error {
	if !r.Valid() {
		return fmt.Errorf("rtree: invalid rect %v", r)
	}
	t.insertAtLevel(entry[T]{rect: r, data: data}, 1)
	t.size++
	t.stats.inserts.Add(1)
	return nil
}

// insertAtLevel inserts an entry at the given level counted from the
// leaves (level 1 = leaf level). Subtree reinsertion during deletion uses
// levels > 1.
func (t *Tree[T]) insertAtLevel(e entry[T], level int) {
	leafPath := t.choosePath(e.rect, level)
	n := leafPath[len(leafPath)-1]
	t.assertMutable(n)
	n.entries = append(n.entries, e)
	t.adjustPath(leafPath)
}

// choosePath descends from the root to the node at the target level,
// choosing at each step the child whose rectangle needs least enlargement
// (ChooseLeaf / ChooseSubtree), and returns the visited nodes. Every node
// on the returned path is writer-owned: shared (published) nodes are
// cloned during the descent and re-linked into their parents, so the
// caller may mutate path nodes freely.
func (t *Tree[T]) choosePath(r Rect, level int) []*node[T] {
	path := make([]*node[T], 0, t.height)
	n := t.mutable(t.root)
	t.root = n
	depth := t.height // level of n, counted from leaves
	path = append(path, n)
	for depth > level {
		best := 0
		var bestArea, bestMargin, bestSize float64
		for i, e := range n.entries {
			dArea, dMargin := e.rect.Enlargement(r)
			size := e.rect.Area()
			if i == 0 || less3(dArea, dMargin, size, bestArea, bestMargin, bestSize) {
				best, bestArea, bestMargin, bestSize = i, dArea, dMargin, size
			}
		}
		child := t.mutable(n.entries[best].child)
		n.entries[best].child = child
		n = child
		path = append(path, n)
		depth--
	}
	return path
}

// less3 orders subtree candidates by (area enlargement, margin
// enlargement, current area) lexicographically — the margin term breaks
// ties between degenerate boxes whose area enlargement is always zero.
func less3(a1, a2, a3, b1, b2, b3 float64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

// adjustPath walks back up the insertion path, splitting overflowing
// nodes and keeping parent rectangles tight (AdjustTree).
func (t *Tree[T]) adjustPath(path []*node[T]) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.opts.MaxEntries {
			t.tightenParent(path, i)
			continue
		}
		left, right := t.splitNode(n)
		if i == 0 {
			// Root split: the tree grows a level.
			t.root = &node[T]{
				leaf: false,
				gen:  t.writeGen,
				entries: []entry[T]{
					{rect: left.mbr(), child: left},
					{rect: right.mbr(), child: right},
				},
			}
			t.height++
			return
		}
		parent := path[i-1]
		t.assertMutable(parent)
		// Replace n's slot with left, append right.
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j] = entry[T]{rect: left.mbr(), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, entry[T]{rect: right.mbr(), child: right})
	}
}

// tightenParent refreshes the parent entry rectangle for path[i].
func (t *Tree[T]) tightenParent(path []*node[T], i int) {
	if i == 0 {
		return
	}
	n, parent := path[i], path[i-1]
	t.assertMutable(parent)
	for j := range parent.entries {
		if parent.entries[j].child == n {
			parent.entries[j].rect = n.mbr()
			return
		}
	}
}

// splitNode distributes an overflowing node's entries into two new nodes
// using the configured heuristic. The receiver node is reused as the left
// half.
func (t *Tree[T]) splitNode(n *node[T]) (left, right *node[T]) {
	t.assertMutable(n)
	t.stats.splits.Add(1)
	entries := n.entries
	if t.opts.Split == RStarSplit {
		l, r := rstarSplit(entries, t.opts.MinEntries)
		left = n
		left.entries = append(left.entries[:0], l...)
		right = &node[T]{leaf: n.leaf, gen: t.writeGen, entries: append([]entry[T](nil), r...)}
		return left, right
	}
	var seedA, seedB int
	if t.opts.Split == LinearSplit {
		seedA, seedB = linearPickSeeds(entries)
	} else {
		seedA, seedB = quadraticPickSeeds(entries)
	}

	left = n
	right = &node[T]{leaf: n.leaf, gen: t.writeGen}
	la := entries[seedA]
	lb := entries[seedB]
	rest := make([]entry[T], 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	left.entries = append(left.entries[:0], la)
	right.entries = append(right.entries, lb)
	rectL, rectR := la.rect, lb.rect

	for len(rest) > 0 {
		// If one group must take everything left to reach minimum fill,
		// assign the remainder wholesale.
		need := t.opts.MinEntries
		if len(left.entries)+len(rest) <= need {
			for _, e := range rest {
				left.entries = append(left.entries, e)
			}
			break
		}
		if len(right.entries)+len(rest) <= need {
			right.entries = append(right.entries, rest...)
			break
		}
		var pick int
		if t.opts.Split == QuadraticSplit {
			pick = quadraticPickNext(rest, rectL, rectR)
		} // linear split takes entries in arbitrary order: pick stays 0
		e := rest[pick]
		rest[pick] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]

		dAL, dML := rectL.Enlargement(e.rect)
		dAR, dMR := rectR.Enlargement(e.rect)
		toLeft := less3(dAL, dML, rectL.Area(), dAR, dMR, rectR.Area())
		if dAL == dAR && dML == dMR && rectL.Area() == rectR.Area() {
			toLeft = len(left.entries) <= len(right.entries)
		}
		if toLeft {
			left.entries = append(left.entries, e)
			rectL = rectL.Union(e.rect)
		} else {
			right.entries = append(right.entries, e)
			rectR = rectR.Union(e.rect)
		}
	}
	return left, right
}

// quadraticPickSeeds returns the pair of entries that would waste the most
// area if grouped together (PickSeeds, quadratic variant), with margin as
// the degenerate-box tie-breaker.
func quadraticPickSeeds[T any](entries []entry[T]) (int, int) {
	bestA, bestB := 0, 1
	worstArea := -1.0
	worstMargin := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].rect.Union(entries[j].rect)
			dead := u.Area() - entries[i].rect.Area() - entries[j].rect.Area()
			margin := u.Margin()
			if dead > worstArea || (dead == worstArea && margin > worstMargin) {
				worstArea, worstMargin = dead, margin
				bestA, bestB = i, j
			}
		}
	}
	return bestA, bestB
}

// linearPickSeeds finds, per dimension, the pair with the greatest
// normalized separation, and returns the overall winner (PickSeeds,
// linear variant).
func linearPickSeeds[T any](entries []entry[T]) (int, int) {
	bestA, bestB := 0, 1
	bestSep := -1.0
	for d := 0; d < Dims; d++ {
		lowestMax, highestMin := 0, 0
		lo, hi := entries[0].rect.Min[d], entries[0].rect.Max[d]
		for i, e := range entries {
			if e.rect.Max[d] < entries[lowestMax].rect.Max[d] {
				lowestMax = i
			}
			if e.rect.Min[d] > entries[highestMin].rect.Min[d] {
				highestMin = i
			}
			if e.rect.Min[d] < lo {
				lo = e.rect.Min[d]
			}
			if e.rect.Max[d] > hi {
				hi = e.rect.Max[d]
			}
		}
		if lowestMax == highestMin {
			continue
		}
		width := hi - lo
		if width <= 0 {
			width = 1
		}
		sep := (entries[highestMin].rect.Min[d] - entries[lowestMax].rect.Max[d]) / width
		if sep > bestSep {
			bestSep = sep
			bestA, bestB = lowestMax, highestMin
		}
	}
	return bestA, bestB
}

// quadraticPickNext returns the pending entry with the greatest preference
// for one group over the other (PickNext).
func quadraticPickNext[T any](rest []entry[T], rectL, rectR Rect) int {
	best := 0
	bestDiff := -1.0
	for i, e := range rest {
		dL, mL := rectL.Enlargement(e.rect)
		dR, mR := rectR.Enlargement(e.rect)
		diff := abs(dL - dR)
		if diff == 0 {
			diff = abs(mL-mR) * 1e-9 // margin-scale preference for flat boxes
		}
		if diff > bestDiff {
			bestDiff = diff
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Search calls fn for every stored item whose rectangle intersects q.
// Return false from fn to stop early. The traversal order is unspecified.
func (t *Tree[T]) Search(q Rect, fn func(Rect, T) bool) {
	t.SearchCounted(q, fn)
}

// SearchCounted is Search, additionally reporting the cost of this one
// traversal: the nodes whose entries were examined and the leaf entries
// tested against q. The same counts still accumulate into the tree's
// lifetime Stats; the return values are the per-call slice of them that
// a query trace records.
func (t *Tree[T]) SearchCounted(q Rect, fn func(Rect, T) bool) (nodesVisited, leafEntriesScanned int64) {
	_, nodesVisited, leafEntriesScanned = searchFrom(t.root, &t.stats, q, Near{}, math.Inf(1), byValue(fn))
	return nodesVisited, leafEntriesScanned
}

// byValue adapts a copying, stop-on-false callback to the in-place
// traversal: only the items that intersect the query are copied, at the
// call boundary, and "stop" becomes a bound nothing can meet.
func byValue[T any](fn func(Rect, T) bool) func(*Rect, *T) float64 {
	return func(r *Rect, v *T) float64 {
		if fn(*r, *v) {
			return math.Inf(1)
		}
		return -1
	}
}

// Near steers a range search around a point: a subtree's or item's
// distance from P is bounded below by the gap between P and its
// rectangle, each dimension scaled by W (a zero weight removes the
// dimension). The zero Near bounds every distance by zero, which
// leaves the search unsteered.
type Near struct {
	P, W [Dims]float64
}

// MinDist2 returns the squared lower bound on the weighted distance
// from n.P to anything inside r (0 when P is inside).
func (n *Near) MinDist2(r *Rect) float64 {
	sum := 0.0
	for d := 0; d < Dims; d++ {
		if n.W[d] == 0 {
			continue
		}
		var gap float64
		if v := n.P[d]; v < r.Min[d] {
			gap = r.Min[d] - v
		} else if v > r.Max[d] {
			gap = v - r.Max[d]
		}
		gap *= n.W[d]
		sum += gap * gap
	}
	return sum
}

// walk is the state of one range traversal: the query box, the
// steering, the callback, and the bound the callback last returned with
// its square (-1 once it asked to stop: no lower bound is below that).
type walk[T any] struct {
	q             *Rect
	near          Near
	fn            func(*Rect, *T) float64
	bound, bound2 float64
	c             searchCounters
}

func (w *walk[T]) setBound(b float64) {
	w.bound, w.bound2 = b, b*b
	if b < 0 {
		w.bound2 = -1
	}
}

// nearSlot is one intersecting child of an internal node, queued by its
// lower bound.
type nearSlot[T any] struct {
	dist2 float64
	child *node[T]
}

// searchFrom runs the one range kernel from root: fn receives every item
// intersecting q whose lower bound under near does not exceed the bound
// — the one given, then whatever fn last returned — and the final bound
// is handed back with the nodes visited and leaf entries tested.
func searchFrom[T any](root *node[T], st *stats, q Rect, near Near, bound float64, fn func(*Rect, *T) float64) (float64, int64, int64) {
	w := walk[T]{q: &q, near: near, fn: fn}
	w.setBound(bound)
	w.searchNode(root)
	st.recordSearch(w.c)
	return w.bound, w.c.nodes, w.c.leafs
}

// searchNode visits entries where they live: node slots are addressed by
// index, never copied, and fn receives pointers into the node. The
// intersecting children of an internal node are entered nearest lower
// bound first, so the bound tightens before the farther ones are
// reached, and whatever lies strictly beyond the bound is skipped —
// strictly, so an item exactly at the bound is still offered.
func (w *walk[T]) searchNode(n *node[T]) {
	w.c.nodes++
	es := n.entries
	if n.leaf {
		w.c.leafs += int64(len(es))
		for i := range es {
			e := &es[i]
			if !e.rect.intersects(w.q) || w.near.MinDist2(&e.rect) > w.bound2 {
				continue
			}
			w.setBound(w.fn(&e.rect, &e.data))
		}
		return
	}
	// Insertion-sorted on the stack; a node wider than the default M
	// spills to the heap.
	var buf [16]nearSlot[T]
	order := buf[:0]
	for i := range es {
		e := &es[i]
		if !e.rect.intersects(w.q) {
			continue
		}
		d2 := w.near.MinDist2(&e.rect)
		if d2 > w.bound2 {
			continue
		}
		j := len(order)
		order = append(order, nearSlot[T]{})
		for ; j > 0 && order[j-1].dist2 > d2; j-- {
			order[j] = order[j-1]
		}
		order[j] = nearSlot[T]{dist2: d2, child: e.child}
	}
	for i := range order {
		if order[i].dist2 > w.bound2 {
			return // ascending: the rest lie beyond the bound too
		}
		w.searchNode(order[i].child)
	}
}

// SearchAll collects all items intersecting q.
func (t *Tree[T]) SearchAll(q Rect) []T {
	var out []T
	t.Search(q, func(_ Rect, v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Scan calls fn for every stored item. Return false to stop early.
func (t *Tree[T]) Scan(fn func(Rect, T) bool) {
	scanNode(t.root, fn)
}

func scanNode[T any](n *node[T], fn func(Rect, T) bool) bool {
	es := n.entries
	for i := range es {
		e := &es[i]
		if n.leaf {
			if !fn(e.rect, e.data) {
				return false
			}
		} else if !scanNode(e.child, fn) {
			return false
		}
	}
	return true
}

// Bounds returns the MBR of the whole tree and whether it is non-empty.
func (t *Tree[T]) Bounds() (Rect, bool) {
	if t.size == 0 {
		return Rect{}, false
	}
	return t.root.mbr(), true
}
