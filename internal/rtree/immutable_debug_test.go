//go:build fovrdebug

package rtree

import "testing"

// Under the fovrdebug tag, a write to a node that a published snapshot
// still owns must panic at the assertion site. The public API can never
// reach this state (copy-on-write clones first), so the test drives the
// assertion directly with a frozen node.
func TestAssertMutablePanicsOnFrozenNode(t *testing.T) {
	tr := newTree(DefaultOptions)
	if err := tr.Insert(item{snapRect(1), 1}); err != nil {
		t.Fatal(err)
	}
	s := tr.Publish() // freezes the current root
	defer func() {
		if recover() == nil {
			t.Fatal("assertMutable on a published node did not panic")
		}
	}()
	tr.assertMutable(s.root)
}
