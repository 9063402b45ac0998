package rtree

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"
)

// Options tune the tree shape.
type Options struct {
	// MaxEntries is M, the node capacity. Must be in [4, 1<<16].
	MaxEntries int
	// MinEntries is m, the minimum fill; 2 <= m <= M/2. Zero selects
	// the standard 40% fill.
	MinEntries int
}

// DefaultOptions is M = 32, m = 12 (40 %). A full leaf of 40-B slots
// (1 280 B) and a full internal node's kid array (32 × 56 B = 1 792 B)
// are each a Go size class, so full nodes carry no rounding.
var DefaultOptions = Options{MaxEntries: defaultMaxEntries}

// defaultMaxEntries is the default M, and what the search kernel's
// stack buffer holds.
const defaultMaxEntries = 32

func (o Options) withDefaults() (Options, error) {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultOptions.MaxEntries
	}
	if o.MaxEntries < 4 || o.MaxEntries > 1<<16 {
		return o, fmt.Errorf("rtree: MaxEntries %d out of [4, 65536]", o.MaxEntries)
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
	return o, nil
}

// node is a tree node: a 24-B header over one slot array. An internal
// node's slots are kids, each a child's bounding rectangle beside its
// pointer, so the filter over child MBRs walks one contiguous array and
// a node (or a copy-on-write clone of one) costs one allocation for its
// slots. A leaf's slots are its items; an item's rectangle is derived
// from the item by the tree's bounds function, never stored. All leaves
// are at the same depth. The array is typed only by the accessors below
// (kids and items read it, setKids and setItems write it); no other
// code turns p into a slice.
//
// gen is the write generation the node belongs to. A node whose gen
// equals the tree's current writeGen is exclusively owned by the writer
// and may be mutated in place; any other node may be shared with a
// published Snapshot and must be cloned before mutation (copy-on-write).
type node[T any] struct {
	gen uint64
	p   unsafe.Pointer // the first slot, a kid[T] or a T; nil without an array
	n   uint32         // slots in use
	c   uint32         // slot capacity, or'ed with leafBit on a leaf
}

// leafBit marks a leaf in node.c.
const leafBit = 1 << 31

// kid is one slot of an internal node: the child and its exact MBR.
type kid[T any] struct {
	rect Rect
	node *node[T]
}

// newLeaf returns an empty leaf of write generation gen.
func newLeaf[T any](gen uint64) *node[T] { return &node[T]{gen: gen, c: leafBit} }

func (n *node[T]) leaf() bool { return n.c&leafBit != 0 }

// size is the number of slots in use: kids or items.
func (n *node[T]) size() int { return int(n.n) }

func (n *node[T]) kids() []kid[T] {
	n.assertKind(false)
	return unsafe.Slice((*kid[T])(n.p), n.c)[:n.n]
}

func (n *node[T]) items() []T {
	n.assertKind(true)
	return unsafe.Slice((*T)(n.p), n.c&^leafBit)[:n.n]
}

func (n *node[T]) setKids(s []kid[T]) {
	n.assertKind(false)
	n.p, n.n, n.c = unsafe.Pointer(unsafe.SliceData(s)), uint32(len(s)), uint32(cap(s))
}

func (n *node[T]) setItems(s []T) {
	n.assertKind(true)
	n.p, n.n, n.c = unsafe.Pointer(unsafe.SliceData(s)), uint32(len(s)), uint32(cap(s))|leafBit
}

// assertKind panics, under the fovrdebug tag, unless n's leaf flag is
// leaf: a slot array is never read or written as the other slot type.
func (n *node[T]) assertKind(leaf bool) {
	if debugChecks && n.leaf() != leaf {
		panic("rtree: a node's slots used as the other kind")
	}
}

// mbr returns the minimum bounding rectangle of a non-empty node.
func mbr[T any](n *node[T], bounds func(*T) Rect) Rect {
	if !n.leaf() {
		kids := n.kids()
		r := kids[0].rect
		for i := 1; i < len(kids); i++ {
			r = r.Union(kids[i].rect)
		}
		return r
	}
	items := n.items()
	r := bounds(&items[0])
	for i := 1; i < len(items); i++ {
		r = r.Union(bounds(&items[i]))
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
	// path is the writer's last descent from the root (choosePath), and
	// at[i] the slot of path[i] that holds path[i+1].
	path []*node[T]
	at   []int

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
		root:   newLeaf[T](0),
		height: 1,
	}
	t.Publish() // a tree always has a (possibly empty) snapshot
	return t, nil
}

// MustNew is New for known-good options, such as Options{} or
// DefaultOptions.
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
	leaf := t.choosePath(r, 1)
	t.assertMutable(leaf)
	leaf.setItems(push(leaf.items(), item))
	t.adjustPath(r)
}

// insertChild links a subtree with bounding rectangle r into a node at
// the given level counted from the leaves (level 2 = parents of leaves).
// Subtree reinsertion during deletion uses it.
func (t *Tree[T]) insertChild(r Rect, child *node[T], level int) {
	n := t.choosePath(r, level)
	t.assertMutable(n)
	n.setKids(push(n.kids(), kid[T]{r, child}))
	t.adjustPath(r)
}

// choosePath descends from the root to the node at the target level,
// choosing at each step the child whose rectangle needs least enlargement
// (ChooseLeaf / ChooseSubtree), keeps the descent in t.path and t.at and
// returns the node it reached. Every node on the path is writer-owned:
// shared (published) nodes are cloned during the descent and re-linked
// into their parents, so the caller may mutate path nodes freely.
func (t *Tree[T]) choosePath(r Rect, level int) *node[T] {
	n := t.mutable(t.root)
	t.root = n
	path, at := append(t.path[:0], n), t.at[:0]
	for depth := t.height; depth > level; depth-- { // depth: n's level, counted from leaves
		kids := n.kids()
		best := 0
		var bestArea, bestMargin, bestSize float64
		for i := range kids {
			dArea, dMargin, size := enlarge(&kids[i].rect, &r)
			if i == 0 || less3(dArea, dMargin, size, bestArea, bestMargin, bestSize) {
				best, bestArea, bestMargin, bestSize = i, dArea, dMargin, size
			}
		}
		child := t.mutable(kids[best].node)
		kids[best].node = child
		n = child
		path, at = append(path, n), append(at, best)
	}
	t.path, t.at = path, at
	return n
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

// slotOf returns the index of child among n's kids.
func slotOf[T any](n, child *node[T]) int {
	for j, k := range n.kids() {
		if k.node == child {
			return j
		}
	}
	panic("rtree: child not linked into its parent")
}

// adjustPath walks back up the last descent, along which a slot with
// rectangle r was just added, splitting overflowing nodes and keeping
// parent rectangles tight (AdjustTree). A node that did not overflow
// gained exactly r below it, so its parent slot (t.at: a parent changes
// only after the nodes below it) grows by r: that is its exact MBR,
// because the slot was tight before and min/max are exact. The two
// halves of a split are measured in full.
func (t *Tree[T]) adjustPath(r Rect) {
	path := t.path
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.size() <= t.opts.MaxEntries {
			if i > 0 {
				parent := path[i-1]
				t.assertMutable(parent)
				k := &parent.kids()[t.at[i-1]]
				k.rect = k.rect.Union(r)
			}
			continue
		}
		left, right := t.splitNode(n)
		if i == 0 {
			// Root split: the tree grows a level.
			t.root = &node[T]{gen: t.writeGen}
			t.root.setKids([]kid[T]{{mbr(left, t.bounds), left}, {mbr(right, t.bounds), right}})
			t.height++
			return
		}
		parent := path[i-1]
		t.assertMutable(parent)
		// Replace n's slot with left, append right.
		parent.kids()[t.at[i-1]] = kid[T]{mbr(left, t.bounds), left}
		parent.setKids(push(parent.kids(), kid[T]{mbr(right, t.bounds), right}))
	}
}

// splitNode distributes an overflowing node's slots into two halves
// with the R* split. The receiver node is reused as the left half; each
// half gets a fresh backing array sized to its length plus one spare
// slot.
func (t *Tree[T]) splitNode(n *node[T]) (left, right *node[T]) {
	t.assertMutable(n)
	t.stats.splits.Add(1)
	l, r := t.scratch.rstar(t.slotRects(n), t.opts.MinEntries)
	right = &node[T]{gen: t.writeGen, c: n.c & leafBit}
	if n.leaf() { // right first: it picks from n's slots before n is cut
		right.setItems(pick(n.items(), r))
		n.setItems(pick(n.items(), l))
	} else {
		right.setKids(pick(n.kids(), r))
		n.setKids(pick(n.kids(), l))
	}
	return n, right
}

// slotRects returns the rectangle of every slot of n, in slot order, in
// the split scratch: the stored child MBRs of an internal node, the
// derived ones of a leaf.
func (t *Tree[T]) slotRects(n *node[T]) []Rect {
	rs := t.scratch.rects[:0]
	if n.leaf() {
		items := n.items()
		for i := range items {
			rs = append(rs, t.bounds(&items[i]))
		}
	} else {
		for _, k := range n.kids() {
			rs = append(rs, k.rect)
		}
	}
	t.scratch.rects = rs
	return rs
}

// push appends v to a writer-owned slot slice. A full s grows to the
// size class one more slot lands in, which the allocator hands out
// anyway, never by append's doubling: between two publishes the writer
// appends to the same node in place, batch after batch, and doubled
// arrays would stay in the tree as slack.
func push[S any](s []S, v S) []S {
	if len(s) == cap(s) {
		grown := append([]S(nil), make([]S, len(s)+1)...)
		s = grown[:copy(grown, s)]
	}
	return append(s, v)
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

// Search calls fn with a copy of every stored item whose rectangle
// intersects q. Return false from fn to stop early. The traversal order
// is unspecified.
func (t *Tree[T]) Search(q Rect, fn func(T) bool) {
	searchFrom(t.root, &t.stats, q, Near{}, math.Inf(1), eachItem(t.bounds, &q, &Near{}, byValue(fn)))
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

// eachItem adapts a per-item callback to the leaf kernel: fn receives
// each item of a leaf whose rectangle, by bounds, intersects q and whose
// lower bound under near does not exceed the bound — the leaf's, then
// whatever fn last returned — and the leaf answers fn's last bound.
func eachItem[T any](bounds func(*T) Rect, q *Rect, near *Near, fn func(*T) float64) func([]T, float64) float64 {
	return func(items []T, bound float64) float64 {
		for i := range items {
			if bound < 0 {
				break
			}
			r := bounds(&items[i])
			if r.intersects(q) && !(near.MinDist2(&r) > bound*bound) {
				bound = fn(&items[i])
			}
		}
		return bound
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
// steering, the leaf callback, and the bound the callback last returned
// with its square (-1 once it asked to stop: no lower bound is below
// that).
type walk[T any] struct {
	q             *Rect
	near          Near
	leaf          func([]T, float64) float64
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

// searchFrom runs the one range kernel from root: every leaf whose
// path of child MBRs intersects q, each within the bound under near —
// the bound given, then whatever leaf last returned — is handed whole
// to leaf with the current bound, and leaf's answer becomes the bound.
// The nodes visited and leaf items handed over are handed back.
func searchFrom[T any](root *node[T], st *stats, q Rect, near Near, bound float64, leaf func([]T, float64) float64) (int64, int64) {
	w := walk[T]{q: &q, near: near, leaf: leaf}
	w.setBound(bound)
	w.searchNode(root)
	st.recordSearch(w.c)
	return w.c.nodes, w.c.leafs
}

// searchNode visits slots where they live: an internal node's child MBRs
// are read in place from its kids array, and a leaf's item array is
// handed over as it is, never copied. The intersecting children of an
// internal node are entered nearest lower bound first, so the bound
// tightens before the farther ones are reached, and whatever lies
// strictly beyond the bound is skipped — strictly, so a subtree exactly
// at the bound is still entered.
func (w *walk[T]) searchNode(n *node[T]) {
	w.c.nodes++
	if n.leaf() {
		items := n.items()
		w.c.leafs += int64(len(items))
		w.setBound(w.leaf(items, w.bound))
		return
	}
	// Insertion-sorted on the stack: a node holds at most the default M
	// kids (a tree built wider spills to the heap).
	var buf [defaultMaxEntries]nearSlot[T]
	order := buf[:0]
	kids := n.kids()
	for i := range kids {
		r := &kids[i].rect
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
		order[j] = nearSlot[T]{dist2: d2, child: kids[i].node}
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
	if n.leaf() {
		items := n.items()
		for i := range items {
			if !fn(&items[i]) {
				return false
			}
		}
		return true
	}
	for _, k := range n.kids() {
		if !scanNode(k.node, fn) {
			return false
		}
	}
	return true
}
