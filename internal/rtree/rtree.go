package rtree

import (
	"fmt"
	"math"
	"sync/atomic"
)

// SplitAlgorithm selects the node-split heuristic used on overflow.
type SplitAlgorithm int

const (
	// RStarSplit is the R*-tree topological split (Beckmann et al. 1990,
	// split phase only): margin-minimal axis choice, with time weighted
	// to the questions' scale, and overlap-minimal distribution. It is
	// the zero value, so Options{} selects it.
	RStarSplit SplitAlgorithm = iota
	// QuadraticSplit is Guttman's quadratic-cost split (an ablation).
	QuadraticSplit
	// LinearSplit is Guttman's linear-cost split: cheaper to run,
	// usually looser groupings (an ablation).
	LinearSplit
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
	// Split selects the overflow heuristic; the zero value is R*.
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

// node is a tree node, laid out struct-of-arrays. An internal node keeps
// its children's bounding rectangles contiguous in rects, beside the
// child pointers, so the filter over child MBRs reads nothing else. A
// leaf keeps only its items: an item's rectangle is derived from the
// item by the tree's bounds function, never stored. All leaves are at
// the same depth.
//
// gen is the write generation the node belongs to. A node whose gen
// equals the tree's current writeGen is exclusively owned by the writer
// and may be mutated in place; any other node may be shared with a
// published Snapshot and must be cloned before mutation (copy-on-write).
type node[T any] struct {
	leaf     bool
	gen      uint64
	rects    []Rect     // internal: rects[i] is the MBR of children[i]
	children []*node[T] // internal only
	items    []T        // leaf only
}

// size is the number of slots in use: children or items.
func (n *node[T]) size() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

// mbr returns the minimum bounding rectangle of a non-empty node.
func mbr[T any](n *node[T], bounds func(*T) Rect) Rect {
	if !n.leaf {
		r := n.rects[0]
		for _, c := range n.rects[1:] {
			r = r.Union(c)
		}
		return r
	}
	r := bounds(&n.items[0])
	for i := 1; i < len(n.items); i++ {
		r = r.Union(bounds(&n.items[i]))
	}
	return r
}

// Tree is an R-tree over values of type T, each indexed under the
// rectangle its bounds function derives from it. The zero value is not
// usable; construct with New.
type Tree[T any] struct {
	opts   Options
	bounds func(*T) Rect
	root   *node[T]
	height int // number of levels; 1 = root is a leaf
	size   int
	packed bool // built by BulkLoad: tail nodes may be under-filled
	stats  stats
	// scratch is the writer's split working memory.
	scratch splitScratch

	// writeGen is the current write generation: nodes stamped with it are
	// writer-owned, everything older is frozen (possibly shared with a
	// published Snapshot). Publish bumps it, freezing the whole tree.
	writeGen uint64
	// snap is the most recently published read-only snapshot. Readers load
	// it without any coordination with the writer; mutators require the
	// caller's usual external serialization.
	snap atomic.Pointer[Snapshot[T]]
}

// New returns an empty tree that indexes each item under bounds(item),
// or an error for invalid options. bounds must be a pure function of the
// item: the tree calls it whenever it needs a leaf rectangle, and the
// item's rectangle must not change while it is stored.
func New[T any](opts Options, bounds func(*T) Rect) (*Tree[T], error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree[T]{
		opts:   o,
		bounds: bounds,
		root:   &node[T]{leaf: true},
		height: 1,
	}
	t.Publish() // a tree always has a (possibly empty) snapshot
	return t, nil
}

// MustNew is New for known-good options (used by package-internal callers
// and tests).
func MustNew[T any](opts Options, bounds func(*T) Rect) *Tree[T] {
	t, err := New(opts, bounds)
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

// Insert adds an item under its bounding rectangle.
func (t *Tree[T]) Insert(item T) error {
	r := t.bounds(&item)
	if !r.Valid() {
		return fmt.Errorf("rtree: invalid rect %v", r)
	}
	t.insertItem(r, item)
	t.size++
	t.stats.inserts.Add(1)
	return nil
}

// insertItem places an item whose rectangle is r in a leaf (ChooseLeaf,
// then AdjustTree). Insert and the reinsertion of orphaned leaf items
// during deletion share it.
func (t *Tree[T]) insertItem(r Rect, item T) {
	path := t.choosePath(r, 1)
	leaf := path[len(path)-1]
	t.assertMutable(leaf)
	leaf.items = append(leaf.items, item)
	t.adjustPath(path, r)
}

// insertChild links a subtree with bounding rectangle r into a node at
// the given level counted from the leaves (level 2 = parents of leaves).
// Subtree reinsertion during deletion uses it.
func (t *Tree[T]) insertChild(r Rect, child *node[T], level int) {
	path := t.choosePath(r, level)
	n := path[len(path)-1]
	t.assertMutable(n)
	n.rects = append(n.rects, r)
	n.children = append(n.children, child)
	t.adjustPath(path, r)
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
		for i := range n.rects {
			dArea, dMargin, size := enlarge(&n.rects[i], &r)
			if i == 0 || less3(dArea, dMargin, size, bestArea, bestMargin, bestSize) {
				best, bestArea, bestMargin, bestSize = i, dArea, dMargin, size
			}
		}
		child := t.mutable(n.children[best])
		n.children[best] = child
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

// slotOf returns the index of child among n's children.
func slotOf[T any](n, child *node[T]) int {
	for j, c := range n.children {
		if c == child {
			return j
		}
	}
	panic("rtree: child not linked into its parent")
}

// adjustPath walks back up the path along which a slot with rectangle r
// was just added, splitting overflowing nodes and keeping parent
// rectangles tight (AdjustTree). A node that did not overflow gained
// exactly r below it, so its parent slot grows by r: that is its exact
// MBR, because the slot was tight before and min/max are exact. The two
// halves of a split are measured in full.
func (t *Tree[T]) adjustPath(path []*node[T], r Rect) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.size() <= t.opts.MaxEntries {
			if i > 0 {
				parent := path[i-1]
				t.assertMutable(parent)
				j := slotOf(parent, n)
				parent.rects[j] = parent.rects[j].Union(r)
			}
			continue
		}
		left, right := t.splitNode(n)
		if i == 0 {
			// Root split: the tree grows a level.
			t.root = &node[T]{
				gen:      t.writeGen,
				rects:    []Rect{mbr(left, t.bounds), mbr(right, t.bounds)},
				children: []*node[T]{left, right},
			}
			t.height++
			return
		}
		parent := path[i-1]
		t.assertMutable(parent)
		// Replace n's slot with left, append right.
		j := slotOf(parent, n)
		parent.rects[j], parent.children[j] = mbr(left, t.bounds), left
		parent.rects = append(parent.rects, mbr(right, t.bounds))
		parent.children = append(parent.children, right)
	}
}

// splitNode distributes an overflowing node's slots into two halves
// using the configured heuristic. The receiver node is reused as the left
// half; each half gets a fresh backing array sized to its length plus
// one spare slot.
func (t *Tree[T]) splitNode(n *node[T]) (left, right *node[T]) {
	t.assertMutable(n)
	t.stats.splits.Add(1)
	l, r := t.partition(t.slotRects(n))
	right = &node[T]{leaf: n.leaf, gen: t.writeGen}
	if n.leaf {
		n.items, right.items = pick(n.items, l), pick(n.items, r)
	} else {
		n.rects, right.rects = pick(n.rects, l), pick(n.rects, r)
		n.children, right.children = pick(n.children, l), pick(n.children, r)
	}
	return n, right
}

// slotRects returns the rectangle of every slot of n, in slot order: the
// stored child MBRs of an internal node, the derived ones of a leaf in
// the split scratch.
func (t *Tree[T]) slotRects(n *node[T]) []Rect {
	if !n.leaf {
		return n.rects
	}
	rs := t.scratch.rects[:0]
	for i := range n.items {
		rs = append(rs, t.bounds(&n.items[i]))
	}
	t.scratch.rects = rs
	return rs
}

// pick gathers s[at[0]], s[at[1]], ... into a fresh slice with one spare
// slot: the common next step is appending.
func pick[S any](s []S, at []int) []S {
	out := make([]S, len(at), len(at)+1)
	for i, j := range at {
		out[i] = s[j]
	}
	return out
}

// partition splits slot rectangles into two groups, returned as slot
// indices in the order the heuristic assigned them.
func (t *Tree[T]) partition(rects []Rect) (left, right []int) {
	if t.opts.Split == RStarSplit {
		return t.scratch.rstar(rects, t.opts.MinEntries)
	}
	var seedA, seedB int
	if t.opts.Split == LinearSplit {
		seedA, seedB = linearPickSeeds(rects)
	} else {
		seedA, seedB = quadraticPickSeeds(rects)
	}
	rest := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}
	left = append(make([]int, 0, len(rects)), seedA)
	right = append(make([]int, 0, len(rects)), seedB)
	rectL, rectR := rects[seedA], rects[seedB]

	for len(rest) > 0 {
		// If one group must take everything left to reach minimum fill,
		// assign the remainder wholesale.
		need := t.opts.MinEntries
		if len(left)+len(rest) <= need {
			left = append(left, rest...)
			break
		}
		if len(right)+len(rest) <= need {
			right = append(right, rest...)
			break
		}
		var p int
		if t.opts.Split == QuadraticSplit {
			p = quadraticPickNext(rects, rest, rectL, rectR)
		} // linear split takes entries in arbitrary order: p stays 0
		e := rest[p]
		rest[p] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]

		dAL, dML, aL := enlarge(&rectL, &rects[e])
		dAR, dMR, aR := enlarge(&rectR, &rects[e])
		toLeft := less3(dAL, dML, aL, dAR, dMR, aR)
		if dAL == dAR && dML == dMR && aL == aR {
			toLeft = len(left) <= len(right)
		}
		if toLeft {
			left = append(left, e)
			rectL = rectL.Union(rects[e])
		} else {
			right = append(right, e)
			rectR = rectR.Union(rects[e])
		}
	}
	return left, right
}

// quadraticPickSeeds returns the pair of slots that would waste the most
// area if grouped together (PickSeeds, quadratic variant), with margin as
// the degenerate-box tie-breaker.
func quadraticPickSeeds(rects []Rect) (int, int) {
	bestA, bestB := 0, 1
	worstArea := -1.0
	worstMargin := -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			u := rects[i].Union(rects[j])
			dead := u.Area() - rects[i].Area() - rects[j].Area()
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
func linearPickSeeds(rects []Rect) (int, int) {
	bestA, bestB := 0, 1
	bestSep := -1.0
	for d := 0; d < Dims; d++ {
		lowestMax, highestMin := 0, 0
		lo, hi := rects[0].Min[d], rects[0].Max[d]
		for i, r := range rects {
			if r.Max[d] < rects[lowestMax].Max[d] {
				lowestMax = i
			}
			if r.Min[d] > rects[highestMin].Min[d] {
				highestMin = i
			}
			if r.Min[d] < lo {
				lo = r.Min[d]
			}
			if r.Max[d] > hi {
				hi = r.Max[d]
			}
		}
		if lowestMax == highestMin {
			continue
		}
		width := hi - lo
		if width <= 0 {
			width = 1
		}
		sep := (rects[highestMin].Min[d] - rects[lowestMax].Max[d]) / width
		if sep > bestSep {
			bestSep = sep
			bestA, bestB = lowestMax, highestMin
		}
	}
	return bestA, bestB
}

// quadraticPickNext returns the position in rest of the pending slot with
// the greatest preference for one group over the other (PickNext).
func quadraticPickNext(rects []Rect, rest []int, rectL, rectR Rect) int {
	best := 0
	bestDiff := -1.0
	for i, e := range rest {
		dL, mL, _ := enlarge(&rectL, &rects[e])
		dR, mR, _ := enlarge(&rectR, &rects[e])
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

// Search calls fn with a copy of every stored item whose rectangle
// intersects q. Return false from fn to stop early. The traversal order
// is unspecified.
func (t *Tree[T]) Search(q Rect, fn func(T) bool) {
	t.SearchCounted(q, fn)
}

// SearchCounted is Search, additionally reporting the cost of this one
// traversal: the nodes whose slots were examined and the leaf items
// tested against q. The same counts still accumulate into the tree's
// lifetime Stats; the return values are the per-call slice of them that
// a query trace records.
func (t *Tree[T]) SearchCounted(q Rect, fn func(T) bool) (nodesVisited, leafEntriesScanned int64) {
	_, nodesVisited, leafEntriesScanned = searchFrom(t.root, t.bounds, &t.stats, q, Near{}, math.Inf(1), byValue(fn))
	return nodesVisited, leafEntriesScanned
}

// byValue adapts a copying, stop-on-false callback to the in-place
// traversal: only the items that intersect the query are copied, at the
// call boundary, and "stop" becomes a bound nothing can meet.
func byValue[T any](fn func(T) bool) func(*T) float64 {
	return func(v *T) float64 {
		if fn(*v) {
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
// steering, the leaf bounds, the callback, and the bound the callback
// last returned with its square (-1 once it asked to stop: no lower
// bound is below that).
type walk[T any] struct {
	q             *Rect
	near          Near
	bounds        func(*T) Rect
	fn            func(*T) float64
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
// is handed back with the nodes visited and leaf items tested.
func searchFrom[T any](root *node[T], bounds func(*T) Rect, st *stats, q Rect, near Near, bound float64, fn func(*T) float64) (float64, int64, int64) {
	w := walk[T]{q: &q, near: near, bounds: bounds, fn: fn}
	w.setBound(bound)
	w.searchNode(root)
	st.recordSearch(w.c)
	return w.bound, w.c.nodes, w.c.leafs
}

// searchNode visits slots where they live: an internal node's child MBRs
// are read in place from its rects array, a leaf's items are addressed
// by index, never copied, and fn receives pointers into the leaf. The
// intersecting children of an internal node are entered nearest lower
// bound first, so the bound tightens before the farther ones are
// reached, and whatever lies strictly beyond the bound is skipped —
// strictly, so an item exactly at the bound is still offered.
func (w *walk[T]) searchNode(n *node[T]) {
	w.c.nodes++
	if n.leaf {
		items := n.items
		w.c.leafs += int64(len(items))
		bounds, q := w.bounds, w.q
		for i := range items {
			it := &items[i]
			r := bounds(it)
			if !r.intersects(q) || w.near.MinDist2(&r) > w.bound2 {
				continue
			}
			w.setBound(w.fn(it))
		}
		return
	}
	// Insertion-sorted on the stack; a node wider than the default M
	// spills to the heap.
	var buf [16]nearSlot[T]
	order := buf[:0]
	rects := n.rects
	for i := range rects {
		r := &rects[i]
		if !r.intersects(w.q) {
			continue
		}
		d2 := w.near.MinDist2(r)
		if d2 > w.bound2 {
			continue
		}
		j := len(order)
		order = append(order, nearSlot[T]{})
		for ; j > 0 && order[j-1].dist2 > d2; j-- {
			order[j] = order[j-1]
		}
		order[j] = nearSlot[T]{dist2: d2, child: n.children[i]}
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
	t.Search(q, func(v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Scan calls fn for every stored item, in leaf order. Return false to
// stop early. fn receives a pointer into the live tree, valid only
// during the call.
func (t *Tree[T]) Scan(fn func(*T) bool) {
	scanNode(t.root, fn)
}

func scanNode[T any](n *node[T], fn func(*T) bool) bool {
	if n.leaf {
		for i := range n.items {
			if !fn(&n.items[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !scanNode(c, fn) {
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
	return mbr(t.root, t.bounds), true
}
