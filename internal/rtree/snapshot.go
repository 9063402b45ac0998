package rtree

import (
	"encoding/binary"
	"hash/fnv"
)

// Snapshot is an immutable point-in-time view of a Tree, published by the
// writer with Publish and loaded by readers with Tree.Snapshot. Readers
// traverse the frozen node graph with no locks and no coordination with
// the writer: copy-on-write mutation guarantees no published node is ever
// written again, so a reader can never observe torn state, and every read
// is consistent with exactly the publish it loaded (the epoch).
//
// Search statistics recorded through a snapshot accumulate into the
// owning tree's lifetime counters (the stats block is shared and atomic),
// so metrics keep counting regardless of which path served the read.
type Snapshot[T any] struct {
	root   *node[T]
	bounds func(*T) Rect
	height int
	size   int
	epoch  uint64
	opts   Options
	packed bool
	stats  *stats
}

// Snapshot returns the most recently published read-only view. It is
// safe to call concurrently with a writer; the result is never nil for a
// tree built by New or BulkLoad.
func (t *Tree[T]) Snapshot() *Snapshot[T] { return t.snap.Load() }

// Publish freezes the tree's current state into a new immutable Snapshot,
// makes it the one Tree.Snapshot returns, and bumps the write generation
// so any later mutation clones shared nodes instead of writing them in
// place. Publish must be called from the (externally serialized) writer;
// batching several mutations under one Publish makes them visible to
// readers atomically.
//
// The snapshot epoch increases by exactly 1 per publish and always equals
// the tree's post-publish write generation.
func (t *Tree[T]) Publish() *Snapshot[T] {
	epoch := uint64(1)
	if prev := t.snap.Load(); prev != nil {
		epoch = prev.epoch + 1
	}
	s := &Snapshot[T]{
		root:   t.root,
		bounds: t.bounds,
		height: t.height,
		size:   t.size,
		epoch:  epoch,
		opts:   t.opts,
		packed: t.packed,
		stats:  &t.stats,
	}
	t.snap.Store(s)
	t.writeGen++ // freeze every current node: future mutations must clone
	return s
}

// mutable returns a node the writer may mutate in place: n itself when it
// already belongs to the current write generation, otherwise a clone with
// freshly copied slots, sized to their length plus one spare slot (the
// common next step is appending one). The caller must re-link the
// returned node into its parent (or the root).
func (t *Tree[T]) mutable(n *node[T]) *node[T] {
	if n.gen == t.writeGen {
		return n
	}
	c := &node[T]{gen: t.writeGen, c: n.c & leafBit}
	if n.leaf() {
		c.setItems(append(make([]T, 0, n.size()+1), n.items()...))
	} else {
		c.setKids(append(make([]kid[T], 0, n.size()+1), n.kids()...))
	}
	return c
}

// assertMutable panics if the writer is about to mutate a node that may
// be shared with a published snapshot. Compiled out unless the fovrdebug
// build tag is set (debugChecks is a constant).
func (t *Tree[T]) assertMutable(n *node[T]) {
	if debugChecks && n.gen != t.writeGen {
		panic("rtree: write to a node owned by a published snapshot")
	}
}

// Epoch identifies the publish that produced this snapshot; it increases
// by 1 per publish on the owning tree.
func (s *Snapshot[T]) Epoch() uint64 { return s.epoch }

// Len returns the number of items in the snapshot.
func (s *Snapshot[T]) Len() int { return s.size }

// Height returns the number of levels (1 when the root is a leaf).
func (s *Snapshot[T]) Height() int { return s.height }

// SearchNear is the steered, copy-free range search. It enters the
// subtrees whose MBRs intersect q nearest lower bound first (under
// near, Near.MinDist2), skips those strictly beyond the bound — the one
// passed in, then the one leaf last returned — and hands leaf each leaf
// it reaches: the leaf's item array inside the snapshot, with the
// current bound. leaf tests the items itself and returns a distance
// bound: "nothing farther than this from near.P interests me any more"
// (+Inf for no bound, negative to stop). The call hands back this
// traversal's node visits and leaf items handed over: the per-call
// slice of the tree's lifetime Stats, which a query trace records.
//
// A snapshot's nodes are frozen, so what the item arrays hold never
// changes and they stay valid for as long as the caller holds them; the
// caller must not write through them. Only snapshots offer this form —
// a live Tree's write-generation nodes are mutated in place.
func (s *Snapshot[T]) SearchNear(q Rect, near Near, bound float64, leaf func(items []T, bound float64) float64) (nodesVisited, leafEntriesScanned int64) {
	return searchFrom(s.root, s.stats, q, near, bound, leaf)
}

// Scan calls fn for every item in the snapshot, in leaf order. Return
// false to stop. fn receives a pointer into the snapshot's frozen leaf:
// it stays valid, and unchanged, for as long as the caller holds it, and
// the caller must not write through it.
func (s *Snapshot[T]) Scan(fn func(*T) bool) {
	scanNode(s.root, fn)
}

// NodeCount returns the number of nodes in the snapshot.
func (s *Snapshot[T]) NodeCount() int { return countNodes(s.root) }

// ShapeDigest returns an FNV-64a digest of the snapshot's tree, walked
// depth first: every node's slot count and MBR, and every leaf item's
// rectangle. Trees with one digest made the same insert, split and
// packing decisions; tests pin it.
func (s *Snapshot[T]) ShapeDigest() uint64 {
	h := fnv.New64a()
	eachNode(s.root, func(n *node[T]) {
		binary.Write(h, binary.LittleEndian, uint64(n.size()))
		if n.size() > 0 {
			binary.Write(h, binary.LittleEndian, mbr(n, s.bounds))
		}
		for i := 0; n.leaf() && i < n.size(); i++ {
			binary.Write(h, binary.LittleEndian, s.bounds(&n.items()[i]))
		}
	})
	return h.Sum64()
}

// CheckInvariants verifies the snapshot's structural invariants (same
// checks as Tree.CheckInvariants, against the snapshot's own height and
// size).
func (s *Snapshot[T]) CheckInvariants() error {
	return checkTree(s.root, checkParams[T]{
		height: s.height, size: s.size, opts: s.opts, packed: s.packed, bounds: s.bounds,
	})
}
