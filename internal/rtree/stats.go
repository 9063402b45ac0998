package rtree

import "sync/atomic"

// Stats is a snapshot of the tree's lifetime operation counters — the
// raw material for the paper's Section V index-cost evaluation. All
// counters are monotonic for the life of the tree; replacing the tree
// (snapshot restore, bulk rebuild) resets them, which scrapers treat as
// a counter reset.
type Stats struct {
	// Searches counts Search/SearchAll/SearchNear calls.
	Searches int64
	// NodeVisits counts internal and leaf nodes whose entries were
	// examined during searches.
	NodeVisits int64
	// LeafEntriesScanned counts leaf entries tested against a query —
	// the per-query work the R-tree exists to minimise versus a linear
	// scan.
	LeafEntriesScanned int64
	// Inserts and Deletes count successful item mutations.
	Inserts int64
	Deletes int64
	// Reinserts counts entries re-routed during CondenseTree after a
	// deletion left a node underfull.
	Reinserts int64
	// Splits counts node splits caused by overflow.
	Splits int64
}

// stats is the tree-internal atomic edition. Searches run under the
// caller's read lock and may be concurrent, so all fields are atomics.
type stats struct {
	searches   atomic.Int64
	nodeVisits atomic.Int64
	leafScans  atomic.Int64
	inserts    atomic.Int64
	deletes    atomic.Int64
	reinserts  atomic.Int64
	splits     atomic.Int64
}

// Stats returns a snapshot of the tree's operation counters.
func (t *Tree[T]) Stats() Stats {
	return Stats{
		Searches:           t.stats.searches.Load(),
		NodeVisits:         t.stats.nodeVisits.Load(),
		LeafEntriesScanned: t.stats.leafScans.Load(),
		Inserts:            t.stats.inserts.Load(),
		Deletes:            t.stats.deletes.Load(),
		Reinserts:          t.stats.reinserts.Load(),
		Splits:             t.stats.splits.Load(),
	}
}

// searchCounters accumulates per-call counts on the stack so a traversal
// costs two atomic adds total instead of one per node.
type searchCounters struct {
	nodes int64
	leafs int64
}

// recordSearch folds one traversal's counters into the lifetime totals.
// It is a method on the atomic stats block (not the Tree) so snapshots,
// which share the owning tree's stats, can record through the same path.
func (s *stats) recordSearch(c searchCounters) {
	s.searches.Add(1)
	s.nodeVisits.Add(c.nodes)
	s.leafScans.Add(c.leafs)
}
