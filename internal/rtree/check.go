package rtree

import "fmt"

// CheckInvariants verifies the structural invariants of the R-tree and
// returns the first violation found, or nil. It is exported for tests and
// for the index package's failure-injection suite; it is O(n) and not
// meant for production hot paths.
//
// Checked invariants:
//
//  1. Every leaf is at the same depth, equal to Height.
//  2. Every node except the root holds between MinEntries and MaxEntries
//     slots; the root holds at least 2 slots unless it is a leaf.
//  3. An internal node's kids are each a non-nil, non-empty child
//     beside its rectangle.
//  4. Every internal rectangle is exactly the MBR of its child (tight),
//     and hence contains all descendant rectangles.
//  5. Every stored rectangle, and every rectangle the bounds function
//     derives for a leaf item, is valid.
//  6. The item count equals Len.
//
// In addition, the published snapshot (if any) is walked with the same
// structural checks against its own height and size, every snapshot node
// is verified frozen (generation strictly below the current write
// generation, so the writer cannot scribble on it without cloning), and
// the snapshot epoch is checked against the write generation — the two
// advance in lockstep, one step per publish.
func (t *Tree[T]) CheckInvariants() error {
	if err := checkTree(t.root, checkParams[T]{
		height: t.height, size: t.size, opts: t.opts, packed: t.packed, bounds: t.bounds,
	}); err != nil {
		return err
	}
	s := t.snap.Load()
	if s == nil {
		if t.writeGen != 0 {
			return fmt.Errorf("rtree: writeGen %d with no published snapshot", t.writeGen)
		}
		return nil
	}
	if s.epoch != t.writeGen {
		return fmt.Errorf("rtree: snapshot epoch %d != writeGen %d (publish must advance both together)", s.epoch, t.writeGen)
	}
	if err := s.CheckInvariants(); err != nil {
		return fmt.Errorf("rtree: published snapshot (epoch %d): %w", s.epoch, err)
	}
	if err := checkFrozen(s.root, t.writeGen); err != nil {
		return fmt.Errorf("rtree: published snapshot (epoch %d): %w", s.epoch, err)
	}
	return nil
}

// checkParams carries the tree- or snapshot-level facts the structural
// walk validates against.
type checkParams[T any] struct {
	height int
	size   int
	opts   Options
	packed bool
	bounds func(*T) Rect
}

func checkTree[T any](root *node[T], p checkParams[T]) error {
	if root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	if !root.leaf() && root.size() < 2 {
		return fmt.Errorf("rtree: internal root with %d children", root.size())
	}
	count := 0
	if err := checkNode(root, 1, true, &count, p); err != nil {
		return err
	}
	if count != p.size {
		return fmt.Errorf("rtree: counted %d items, Len says %d", count, p.size)
	}
	return nil
}

func checkNode[T any](n *node[T], depth int, isRoot bool, count *int, p checkParams[T]) error {
	if n.leaf() && depth != p.height {
		return fmt.Errorf("rtree: leaf at depth %d, height is %d", depth, p.height)
	}
	size := n.size()
	if size > p.opts.MaxEntries {
		return fmt.Errorf("rtree: node with %d slots exceeds max %d", size, p.opts.MaxEntries)
	}
	// STR packing legitimately leaves the last node of each level under
	// the minimum fill, so the check is skipped for bulk-loaded trees.
	if !isRoot && !p.packed && size < p.opts.MinEntries {
		return fmt.Errorf("rtree: non-root node with %d slots below min %d", size, p.opts.MinEntries)
	}
	if isRoot && size == 0 && p.size > 0 {
		return fmt.Errorf("rtree: empty root with size %d", p.size)
	}
	if n.leaf() {
		items := n.items()
		for i := range items {
			if r := p.bounds(&items[i]); !r.Valid() {
				return fmt.Errorf("rtree: invalid rect %v derived for leaf item %d", r, i)
			}
		}
		*count += size
		return nil
	}
	for i, k := range n.kids() {
		c := k.node
		if !k.rect.Valid() {
			return fmt.Errorf("rtree: invalid rect %v at slot %d", k.rect, i)
		}
		if c == nil {
			return fmt.Errorf("rtree: internal slot %d has no child", i)
		}
		if c.size() == 0 {
			return fmt.Errorf("rtree: internal slot %d holds an empty child", i)
		}
		if got := mbr(c, p.bounds); got != k.rect {
			return fmt.Errorf("rtree: slot %d rect %v is not the child MBR %v", i, k.rect, got)
		}
		if err := checkNode(c, depth+1, false, count, p); err != nil {
			return err
		}
	}
	return nil
}

// checkFrozen verifies no node reachable from a published snapshot root
// belongs to the current write generation: a published node must be
// immutable, so its generation has to predate every future mutation.
func checkFrozen[T any](root *node[T], writeGen uint64) (err error) {
	eachNode(root, func(n *node[T]) {
		if err == nil && n.gen >= writeGen {
			err = fmt.Errorf("rtree: node generation %d not frozen under writeGen %d", n.gen, writeGen)
		}
	})
	return err
}

// NodeCount returns the total number of nodes, for shape diagnostics.
func (t *Tree[T]) NodeCount() int {
	return countNodes(t.root)
}

func countNodes[T any](root *node[T]) (c int) {
	eachNode(root, func(*node[T]) { c++ })
	return c
}

// eachNode calls fn on every node of the tree under n, depth first.
func eachNode[T any](n *node[T], fn func(*node[T])) {
	fn(n)
	if !n.leaf() {
		for _, k := range n.kids() {
			eachNode(k.node, fn)
		}
	}
}
