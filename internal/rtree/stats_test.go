package rtree

import (
	"math"
	"math/rand"
	"testing"
)

func TestStatsCounters(t *testing.T) {
	tr := newTree(Options{MaxEntries: 4})
	n := 100
	for i := 0; i < n; i++ {
		r := Rect{
			Min: [Dims]float64{float64(i), float64(i), 0},
			Max: [Dims]float64{float64(i) + 1, float64(i) + 1, 1},
		}
		if err := tr.Insert(item{r, i}); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.Inserts != int64(n) {
		t.Fatalf("Inserts = %d, want %d", st.Inserts, n)
	}
	if st.Splits == 0 {
		t.Fatal("expected splits after 100 inserts into M=4 nodes")
	}
	if st.Searches != 0 || st.NodeVisits != 0 {
		t.Fatalf("search counters non-zero before any search: %+v", st)
	}

	// A range search visits at least the root and scans some leaves.
	tr.SearchAll(Rect{
		Min: [Dims]float64{0, 0, 0},
		Max: [Dims]float64{10, 10, 1},
	})
	st = tr.Stats()
	if st.Searches != 1 {
		t.Fatalf("Searches = %d, want 1", st.Searches)
	}
	if st.NodeVisits == 0 || st.LeafEntriesScanned == 0 {
		t.Fatalf("search recorded no work: %+v", st)
	}

	// Deletes and reinserts.
	before := tr.Stats()
	for i := 0; i < n; i++ {
		r := Rect{
			Min: [Dims]float64{float64(i), float64(i), 0},
			Max: [Dims]float64{float64(i) + 1, float64(i) + 1, 1},
		}
		if !tr.Delete(&item{r, i}, byID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	st = tr.Stats()
	if st.Deletes-before.Deletes != int64(n) {
		t.Fatalf("Deletes = %d, want %d", st.Deletes-before.Deletes, n)
	}
	if st.Reinserts == 0 {
		t.Fatal("expected condense reinserts while draining the tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchNearCountsPerCall checks that the costs SearchNear returns
// are this one walk's share of the tree's lifetime Stats.
func TestSearchNearCountsPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tree := newTree(Options{MaxEntries: 8})
	for i := 0; i < 500; i++ {
		if err := tree.Insert(item{randRect(rng, false), i}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Publish()
	before := tree.Stats()
	q := randRect(rng, false)
	hits := 0
	nodes, leafs := searchItems(snap, q, Near{}, math.Inf(1), func(*item) float64 { hits++; return math.Inf(1) })
	if nodes <= 0 {
		t.Fatalf("nodesVisited = %d, want > 0 (root is always examined)", nodes)
	}
	if int64(hits) > leafs {
		t.Fatalf("returned %d hits but scanned only %d leaf entries", hits, leafs)
	}
	after := tree.Stats()
	if after.Searches != before.Searches+1 {
		t.Fatalf("lifetime searches advanced by %d, want 1", after.Searches-before.Searches)
	}
	if after.NodeVisits-before.NodeVisits != nodes || after.LeafEntriesScanned-before.LeafEntriesScanned != leafs {
		t.Fatalf("per-call counts (%d, %d) disagree with lifetime deltas (%d, %d)",
			nodes, leafs, after.NodeVisits-before.NodeVisits, after.LeafEntriesScanned-before.LeafEntriesScanned)
	}

	// The unbounded walk and the plain search agree on the result set.
	want := map[int]bool{}
	tree.Search(q, func(v item) bool { want[v.id] = true; return true })
	if len(want) != hits {
		t.Fatalf("SearchNear saw %d hits, Search saw %d", hits, len(want))
	}
}
