package rtree

// Delete removes one stored item that lies at item's bounding rectangle
// and satisfies match, and reports whether such an item was found. The
// rectangle steers the descent to the leaves that can hold it; match
// tells apart items that share it. After the item is removed, underfull
// nodes along the path are dissolved and their surviving slots
// reinserted at their original level (CondenseTree), and the root is
// collapsed if it is left with a single child.
func (t *Tree[T]) Delete(item *T, match func(*T) bool) bool {
	path, idx := t.findLeaf(t.root, t.bounds(item), match, nil)
	if path == nil {
		return false
	}
	// findLeaf explored the tree read-only; clone the found path so the
	// nodes about to be mutated are writer-owned (copy-on-write).
	path = t.clonePath(path)
	leaf := path[len(path)-1]
	t.assertMutable(leaf)
	leaf.setItems(append(leaf.items()[:idx], leaf.items()[idx+1:]...))
	t.size--
	t.stats.deletes.Add(1)
	t.condense(path)
	// Shrink the root while it is an internal node with one child.
	for !t.root.leaf() && t.root.size() == 1 {
		t.root = t.root.kids()[0].node
		t.height--
	}
	if t.size == 0 && !t.root.leaf() {
		t.root = newLeaf[T](t.writeGen)
		t.height = 1
	}
	return true
}

// clonePath replaces every shared node on a root-to-leaf path with a
// writer-owned clone, re-linking each clone into its (already cloned)
// parent and the root, and returns the cloned path.
func (t *Tree[T]) clonePath(path []*node[T]) []*node[T] {
	out := make([]*node[T], len(path))
	out[0] = t.mutable(path[0])
	t.root = out[0]
	for i := 1; i < len(path); i++ {
		c := t.mutable(path[i])
		parent := out[i-1]
		parent.kids()[slotOf(parent, path[i])].node = c
		out[i] = c
	}
	return out
}

// findLeaf locates a leaf item at rectangle r satisfying match and
// returns the root path to its leaf plus the item index, or (nil, 0) if
// absent.
func (t *Tree[T]) findLeaf(n *node[T], r Rect, match func(*T) bool, path []*node[T]) ([]*node[T], int) {
	path = append(path, n)
	if n.leaf() {
		items := n.items()
		for i := range items {
			if t.bounds(&items[i]) == r && match(&items[i]) {
				return path, i
			}
		}
		return nil, 0
	}
	for _, k := range n.kids() {
		if !k.rect.Contains(r) {
			continue
		}
		if p, j := t.findLeaf(k.node, r, match, path); p != nil {
			return p, j
		}
	}
	return nil, 0
}

// tightenParent recomputes the parent slot rectangle of path[i] from all
// of path[i]'s slots: a deletion shrinks the MBR, which only a full
// recomputation finds.
func (t *Tree[T]) tightenParent(path []*node[T], i int) {
	n, parent := path[i], path[i-1]
	t.assertMutable(parent)
	parent.kids()[slotOf(parent, n)].rect = mbr(n, t.bounds)
}

// orphan is a node cut out during condensation, remembered with the
// level its slots lived at (1 = leaf items).
type orphan[T any] struct {
	n     *node[T]
	level int
}

// condense walks the deletion path bottom-up, removing nodes that fell
// below minimum fill and collecting their slots for reinsertion, then
// reinserts every orphaned slot at its original level.
func (t *Tree[T]) condense(path []*node[T]) {
	var orphans []orphan[T]
	for i := len(path) - 1; i >= 1; i-- {
		n, parent := path[i], path[i-1]
		if n.size() < t.opts.MinEntries {
			// Cut n out of its parent and orphan its slots.
			t.assertMutable(parent)
			j := slotOf(parent, n)
			parent.setKids(append(parent.kids()[:j], parent.kids()[j+1:]...))
			if n.size() > 0 {
				// Slots of a node at depth i sit at level t.height-i.
				orphans = append(orphans, orphan[T]{n: n, level: t.height - i})
			}
		} else {
			t.tightenParent(path, i)
		}
	}
	// Reinsert orphans. Higher-level subtrees first so the tree height is
	// stable while they go back in; within a level the order is
	// arbitrary. Reinsertion can split nodes and grow the tree, which is
	// fine — insertChild counts levels from the leaves, so they stay
	// right while the height changes.
	for _, o := range orphans {
		t.stats.reinserts.Add(int64(o.n.size()))
		if o.n.leaf() {
			for _, it := range o.n.items() {
				t.insertItem(t.bounds(&it), it)
			}
			continue
		}
		for _, k := range o.n.kids() {
			t.insertChild(k.rect, k.node, o.level)
		}
	}
}
