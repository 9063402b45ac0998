package rtree

import (
	"math"
	"math/rand"
	"testing"
)

func snapRect(i int) Rect {
	f := float64(i)
	return Rect{Min: [Dims]float64{f, f * 2, f * 3}, Max: [Dims]float64{f + 1, f*2 + 1, f*3 + 1}}
}

// A snapshot taken before a batch of mutations must keep answering from
// the old state, while the mutable tree and later snapshots see the new
// one — the core copy-on-write isolation guarantee.
func TestSnapshotIsolation(t *testing.T) {
	tr := newTree(Options{MaxEntries: 4})
	for i := 0; i < 200; i++ {
		if err := tr.Insert(item{snapRect(i), i}); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Publish()
	if got := before.Len(); got != 200 {
		t.Fatalf("snapshot Len = %d, want 200", got)
	}

	// Mutate heavily without publishing: deletes force condensation and
	// root shrinks, inserts force splits — all on cloned nodes.
	for i := 0; i < 150; i++ {
		if !tr.Delete(&item{r: snapRect(i)}, anyItem) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 200; i < 400; i++ {
		if err := tr.Insert(item{snapRect(i), i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("mid-batch invariants: %v", err)
	}

	// The old snapshot still answers from the pre-mutation state.
	everything := Rect{Min: [Dims]float64{-1e9, -1e9, -1e9}, Max: [Dims]float64{1e9, 1e9, 1e9}}
	seen := map[int]bool{}
	before.Search(everything, func(v item) bool {
		seen[v.id] = true
		return true
	})
	if len(seen) != 200 {
		t.Fatalf("old snapshot sees %d items, want 200", len(seen))
	}
	for i := 0; i < 200; i++ {
		if !seen[i] {
			t.Fatalf("old snapshot lost item %d", i)
		}
	}

	after := tr.Publish()
	if after.Epoch() != before.Epoch()+1 {
		t.Fatalf("epoch %d after publish, want %d", after.Epoch(), before.Epoch()+1)
	}
	if got, want := after.Len(), 250; got != want {
		t.Fatalf("new snapshot Len = %d, want %d", got, want)
	}
	if got := len(after.SearchAll(everything)); got != 250 {
		t.Fatalf("new snapshot search sees %d, want 250", got)
	}
	// And the old one is still frozen at 200.
	if got := len(before.SearchAll(everything)); got != 200 {
		t.Fatalf("old snapshot drifted to %d items", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("post-publish invariants: %v", err)
	}
	if err := before.CheckInvariants(); err != nil {
		t.Fatalf("retired snapshot invariants: %v", err)
	}
}

// Randomized churn with a publish after every operation: the snapshot
// must always match a linear model of the live contents, epochs must
// rise by exactly 1 per publish, and invariants must hold throughout.
func TestSnapshotChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t.Run("rstar", func(t *testing.T) {
		tr := newTree(Options{MaxEntries: 5})
		live := map[int]bool{}
		lastEpoch := tr.Snapshot().Epoch()
		for step := 0; step < 800; step++ {
			id := rng.Intn(120)
			if live[id] && rng.Intn(2) == 0 {
				if !tr.Delete(&item{r: snapRect(id)}, anyItem) {
					t.Fatalf("step %d: delete %d failed", step, id)
				}
				delete(live, id)
			} else if !live[id] {
				if err := tr.Insert(item{snapRect(id), id}); err != nil {
					t.Fatal(err)
				}
				live[id] = true
			}
			s := tr.Publish()
			if s.Epoch() != lastEpoch+1 {
				t.Fatalf("step %d: epoch %d, want %d", step, s.Epoch(), lastEpoch+1)
			}
			lastEpoch = s.Epoch()
			if s.Len() != len(live) {
				t.Fatalf("step %d: snapshot Len %d, model %d", step, s.Len(), len(live))
			}
			if step%97 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// BulkLoad must publish the packed tree, not leave New's empty snapshot
// behind.
func TestSnapshotAfterBulkLoad(t *testing.T) {
	items := make([]item, 500)
	for i := range items {
		items[i] = item{snapRect(i), i}
	}
	tr, err := BulkLoad(Options{MaxEntries: 8}, itemRect, items)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	if s == nil || s.Len() != 500 {
		t.Fatalf("bulk-loaded snapshot = %v", s)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Snapshot searches must feed the shared lifetime stats.
func TestSnapshotStatsShared(t *testing.T) {
	tr := newTree(DefaultOptions)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(item{snapRect(i), i}); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Publish()
	before := tr.Stats().Searches
	s.SearchAll(snapRect(3))
	s.SearchNear(snapRect(3), Near{}, math.Inf(1), func(*item) float64 { return math.Inf(1) })
	if got := tr.Stats().Searches; got != before+2 {
		t.Fatalf("Searches = %d, want %d", got, before+2)
	}
}
