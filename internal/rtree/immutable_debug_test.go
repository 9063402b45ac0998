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

// Under the fovrdebug tag, reading or writing a node's slot array as the
// kind its leaf flag does not say panics: the one untyped slot pointer
// is never reinterpreted as the other slot type.
func TestSlotAccessorsCheckLeafFlag(t *testing.T) {
	leaf, internal := newLeaf[item](0), &node[item]{}
	for name, f := range map[string]func(){
		"kids of a leaf":          func() { leaf.kids() },
		"setKids on a leaf":       func() { leaf.setKids(nil) },
		"items of an internal":    func() { internal.items() },
		"setItems on an internal": func() { internal.setItems(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}
