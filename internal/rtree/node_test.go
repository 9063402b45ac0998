package rtree

import (
	"testing"
	"unsafe"
)

// A node header is 24 B — a generation, a pointer to the first slot,
// and the slots in use beside the capacity and leaf flag — so it sits
// in Go's 24-B size class, where the two slice headers it replaced made
// 56 B in the 64-B class; an internal node's slots are one array of
// 56-B kids, rectangle beside child. The header does not depend on the
// item type (the slot pointer is untyped), so the test payload stands
// for every T. A field added to the header, or a second slot array, has
// to show up here first.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node[item]{}); got != 24 {
		t.Fatalf("node header is %d B, want 24", got)
	}
	if got := unsafe.Sizeof(kid[item]{}); got != 56 {
		t.Fatalf("kid is %d B, want 56", got)
	}
	// A copy-on-write clone of an internal node allocates its header
	// and one slice of kids: two allocations, not three.
	tree := newTree(Options{MaxEntries: 4})
	for i := 0; i < 20; i++ {
		if err := tree.Insert(item{Rect{Min: [Dims]float64{float64(i), 0, 0}, Max: [Dims]float64{float64(i), 0, 1}}, i}); err != nil {
			t.Fatal(err)
		}
	}
	root := tree.root
	if root.leaf() {
		t.Fatal("20 items under M=4 left the root a leaf")
	}
	tree.Publish()
	var clone *node[item]
	if allocs := testing.AllocsPerRun(50, func() { clone = tree.mutable(root) }); allocs != 2 {
		t.Fatalf("cloning an internal node makes %.0f allocations, want 2", allocs)
	}
	if clone.size() != root.size() || clone.leaf() {
		t.Fatalf("the clone has %d slots (leaf %v), the node %d kids", clone.size(), clone.leaf(), root.size())
	}
}
