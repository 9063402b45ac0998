package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randRect produces a random box; degenerate=true yields the paper's
// vertical-segment shape (zero spatial extent, extended in time).
func randRect(rng *rand.Rand, degenerate bool) Rect {
	var r Rect
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	t0 := rng.Float64() * 1000
	if degenerate {
		r.Min = [Dims]float64{x, y, t0}
		r.Max = [Dims]float64{x, y, t0 + rng.Float64()*50}
		return r
	}
	r.Min = [Dims]float64{x, y, t0}
	r.Max = [Dims]float64{x + rng.Float64()*10, y + rng.Float64()*10, t0 + rng.Float64()*50}
	return r
}

// brute is the reference implementation: a flat slice.
type brute struct {
	rects []Rect
	ids   []int
}

func (b *brute) insert(r Rect, id int) {
	b.rects = append(b.rects, r)
	b.ids = append(b.ids, id)
}

func (b *brute) search(q Rect) map[int]bool {
	out := map[int]bool{}
	for i, r := range b.rects {
		if r.Intersects(q) {
			out[b.ids[i]] = true
		}
	}
	return out
}

func (b *brute) delete(r Rect, id int) bool {
	for i := range b.rects {
		if b.rects[i] == r && b.ids[i] == id {
			b.rects = append(b.rects[:i], b.rects[i+1:]...)
			b.ids = append(b.ids[:i], b.ids[i+1:]...)
			return true
		}
	}
	return false
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"defaults", Options{}, true},
		{"explicit", Options{MaxEntries: 8, MinEntries: 3}, true},
		{"max too small", Options{MaxEntries: 3}, false},
		{"min too large", Options{MaxEntries: 8, MinEntries: 5}, false},
		{"min too small", Options{MaxEntries: 8, MinEntries: 1}, false},
		{"bad split", Options{MaxEntries: 8, Split: SplitAlgorithm(9)}, false},
		{"linear", Options{MaxEntries: 8, Split: LinearSplit}, true},
		{"rstar", Options{MaxEntries: 8, Split: RStarSplit}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New[int](c.o)
			if (err == nil) != c.ok {
				t.Fatalf("New(%+v) err = %v, want ok=%v", c.o, err, c.ok)
			}
		})
	}
}

func TestSplitAlgorithmString(t *testing.T) {
	if QuadraticSplit.String() != "quadratic" || LinearSplit.String() != "linear" || RStarSplit.String() != "rstar" {
		t.Fatal("split algorithm names wrong")
	}
	if SplitAlgorithm(9).String() == "" {
		t.Fatal("unknown split algorithm has empty name")
	}
}

func TestRectValid(t *testing.T) {
	good := Rect{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{1, 1, 1}}
	if !good.Valid() {
		t.Fatal("valid rect rejected")
	}
	if !Point([Dims]float64{1, 2, 3}).Valid() {
		t.Fatal("point rect rejected")
	}
	bad := []Rect{
		{Min: [Dims]float64{1, 0, 0}, Max: [Dims]float64{0, 1, 1}},
		{Min: [Dims]float64{math.NaN(), 0, 0}, Max: [Dims]float64{1, 1, 1}},
		{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{math.Inf(1), 1, 1}},
	}
	for i, r := range bad {
		if r.Valid() {
			t.Errorf("case %d: invalid rect %v accepted", i, r)
		}
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{2, 2, 2}}
	b := Rect{Min: [Dims]float64{1, 1, 1}, Max: [Dims]float64{3, 3, 3}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects reported disjoint")
	}
	c := Rect{Min: [Dims]float64{5, 5, 5}, Max: [Dims]float64{6, 6, 6}}
	if a.Intersects(c) {
		t.Error("disjoint rects reported overlapping")
	}
	touch := Rect{Min: [Dims]float64{2, 0, 0}, Max: [Dims]float64{3, 2, 2}}
	if !a.Intersects(touch) {
		t.Error("boundary contact must count as intersection")
	}
	u := a.Union(b)
	want := Rect{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{3, 3, 3}}
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if got := a.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if got := a.Margin(); got != 6 {
		t.Errorf("Margin = %v, want 6", got)
	}
	if !a.Contains(Rect{Min: [Dims]float64{0.5, 0.5, 0.5}, Max: [Dims]float64{1, 1, 1}}) {
		t.Error("contained rect reported outside")
	}
	if a.Contains(b) {
		t.Error("overlapping-but-not-contained rect reported contained")
	}
	if !a.ContainsPoint([Dims]float64{1, 1, 1}) || a.ContainsPoint([Dims]float64{3, 1, 1}) {
		t.Error("ContainsPoint wrong")
	}
	if got := a.Center(); got != [Dims]float64{1, 1, 1} {
		t.Errorf("Center = %v", got)
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{2, 2, 2}}
	if got := r.MinDist([Dims]float64{1, 1, 1}); got != 0 {
		t.Errorf("inside point MinDist = %v, want 0", got)
	}
	if got := r.MinDist([Dims]float64{5, 1, 1}); got != 9 {
		t.Errorf("MinDist = %v, want 9", got)
	}
	if got := r.MinDist([Dims]float64{3, 3, 1}); got != 2 {
		t.Errorf("corner MinDist = %v, want 2", got)
	}
	if got := r.MinDist([Dims]float64{-1, -1, -1}); got != 3 {
		t.Errorf("negative corner MinDist = %v, want 3", got)
	}
}

func TestInsertSearchMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		split      SplitAlgorithm
		degenerate bool
	}{
		{"quadratic boxes", QuadraticSplit, false},
		{"quadratic degenerate", QuadraticSplit, true},
		{"linear boxes", LinearSplit, false},
		{"linear degenerate", LinearSplit, true},
		{"rstar boxes", RStarSplit, false},
		{"rstar degenerate", RStarSplit, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			tree := MustNew[int](Options{MaxEntries: 8, Split: tc.split})
			ref := &brute{}
			for i := 0; i < 2000; i++ {
				r := randRect(rng, tc.degenerate)
				if err := tree.Insert(r, i); err != nil {
					t.Fatal(err)
				}
				ref.insert(r, i)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tree.Len() != 2000 {
				t.Fatalf("Len = %d", tree.Len())
			}
			for q := 0; q < 200; q++ {
				query := randRect(rng, false)
				want := ref.search(query)
				got := map[int]bool{}
				tree.Search(query, func(_ Rect, v int) bool {
					got[v] = true
					return true
				})
				if len(got) != len(want) {
					t.Fatalf("query %d: got %d hits, want %d", q, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("query %d: missing id %d", q, id)
					}
				}
			}
		})
	}
}

func TestInsertInvalidRect(t *testing.T) {
	tree := MustNew[int](Options{})
	bad := Rect{Min: [Dims]float64{1, 0, 0}, Max: [Dims]float64{0, 0, 0}}
	if err := tree.Insert(bad, 1); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree := MustNew[int](Options{MaxEntries: 16})
	for i := 0; i < 20000; i++ {
		if err := tree.Insert(randRect(rng, true), i); err != nil {
			t.Fatal(err)
		}
	}
	// With m = 6, height is bounded by log_6(20000)+1 ~ 6.5.
	if h := tree.Height(); h > 7 {
		t.Fatalf("height %d too large for 20k items", h)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tree := MustNew[int](Options{MaxEntries: 8})
	ref := &brute{}
	rects := make([]Rect, 1200)
	for i := range rects {
		rects[i] = randRect(rng, true)
		if err := tree.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
		ref.insert(rects[i], i)
	}
	// Delete in random order, checking invariants and parity as we go.
	perm := rng.Perm(len(rects))
	for step, idx := range perm {
		id := idx
		okTree := tree.Delete(rects[idx], func(v int) bool { return v == id })
		okRef := ref.delete(rects[idx], id)
		if okTree != okRef {
			t.Fatalf("step %d: delete parity broke: tree=%v ref=%v", step, okTree, okRef)
		}
		if !okTree {
			t.Fatalf("step %d: item %d not found", step, id)
		}
		if step%100 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			query := randRect(rng, false)
			want := ref.search(query)
			got := map[int]bool{}
			tree.Search(query, func(_ Rect, v int) bool { got[v] = true; return true })
			if len(got) != len(want) {
				t.Fatalf("step %d: search mismatch %d vs %d", step, len(got), len(want))
			}
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree must be reusable after being emptied.
	if err := tree.Insert(rects[0], 1); err != nil {
		t.Fatal(err)
	}
	if got := tree.SearchAll(rects[0]); len(got) != 1 || got[0] != 1 {
		t.Fatalf("reuse after emptying: got %v", got)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tree := MustNew[int](Options{})
	r := Point([Dims]float64{1, 2, 3})
	if tree.DeleteRect(r) {
		t.Fatal("delete from empty tree succeeded")
	}
	if err := tree.Insert(r, 7); err != nil {
		t.Fatal(err)
	}
	if tree.Delete(r, func(v int) bool { return v == 8 }) {
		t.Fatal("delete with non-matching predicate succeeded")
	}
	other := Point([Dims]float64{9, 9, 9})
	if tree.DeleteRect(other) {
		t.Fatal("delete of absent rect succeeded")
	}
	if !tree.DeleteRect(r) {
		t.Fatal("delete of present rect failed")
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestDuplicateRects(t *testing.T) {
	// Many items may share one rectangle (several videos shot from the
	// same spot); deletion must remove exactly one, selectable by value.
	tree := MustNew[int](Options{MaxEntries: 4})
	r := Point([Dims]float64{5, 5, 5})
	for i := 0; i < 50; i++ {
		if err := tree.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !tree.Delete(r, func(v int) bool { return v == 31 }) {
		t.Fatal("targeted delete failed")
	}
	if tree.Len() != 49 {
		t.Fatalf("Len = %d, want 49", tree.Len())
	}
	found := map[int]bool{}
	tree.Search(Point([Dims]float64{5, 5, 5}), func(_ Rect, v int) bool {
		found[v] = true
		return true
	})
	if found[31] {
		t.Fatal("deleted value still present")
	}
	if len(found) != 49 {
		t.Fatalf("found %d values, want 49", len(found))
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := MustNew[int](Options{})
	for i := 0; i < 500; i++ {
		_ = tree.Insert(randRect(rng, true), i)
	}
	all, _ := tree.Bounds()
	calls := 0
	tree.Search(all, func(Rect, int) bool {
		calls++
		return calls < 10
	})
	if calls != 10 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := MustNew[int](Options{})
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		_ = tree.Insert(randRect(rng, false), i)
		want[i] = true
	}
	got := map[int]bool{}
	tree.Scan(func(_ Rect, v int) bool { got[v] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("Scan visited %d items, want %d", len(got), len(want))
	}
	calls := 0
	tree.Scan(func(Rect, int) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Scan early stop ignored: %d calls", calls)
	}
}

func TestBoundsEmpty(t *testing.T) {
	tree := MustNew[int](Options{})
	if _, ok := tree.Bounds(); ok {
		t.Fatal("empty tree reports bounds")
	}
	r := Point([Dims]float64{1, 2, 3})
	_ = tree.Insert(r, 1)
	b, ok := tree.Bounds()
	if !ok || b != r {
		t.Fatalf("Bounds = %v, %v", b, ok)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tree := MustNew[int](Options{MaxEntries: 8})
	rects := make([]Rect, 1000)
	for i := range rects {
		rects[i] = randRect(rng, true)
		_ = tree.Insert(rects[i], i)
	}
	for trial := 0; trial < 50; trial++ {
		p := [Dims]float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		got := tree.Nearest(p, k)
		if len(got) != k {
			t.Fatalf("Nearest returned %d, want %d", len(got), k)
		}
		// Brute-force distances.
		dists := make([]float64, len(rects))
		for i, r := range rects {
			dists[i] = r.MinDist(p)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if math.Abs(nb.Dist2-dists[i]) > 1e-9 {
				t.Fatalf("trial %d: neighbor %d dist2 %v, want %v", trial, i, nb.Dist2, dists[i])
			}
			if i > 0 && got[i-1].Dist2 > nb.Dist2 {
				t.Fatalf("trial %d: results not sorted", trial)
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	tree := MustNew[int](Options{})
	if got := tree.Nearest([Dims]float64{0, 0, 0}, 5); got != nil {
		t.Fatal("empty tree returned neighbors")
	}
	_ = tree.Insert(Point([Dims]float64{1, 1, 1}), 1)
	if got := tree.Nearest([Dims]float64{0, 0, 0}, 0); got != nil {
		t.Fatal("k=0 returned neighbors")
	}
	got := tree.Nearest([Dims]float64{0, 0, 0}, 10)
	if len(got) != 1 {
		t.Fatalf("k > size returned %d", len(got))
	}
}

func TestNearestFuncFilter(t *testing.T) {
	tree := MustNew[int](Options{})
	for i := 0; i < 100; i++ {
		_ = tree.Insert(Point([Dims]float64{float64(i), 0, 0}), i)
	}
	// Keep only even ids; the 3 nearest evens to x=0.1 are 0, 2, 4.
	got := tree.NearestFunc([Dims]float64{0.1, 0, 0}, 3, func(v *int) bool {
		return *v%2 == 0
	})
	if len(got) != 3 || got[0].Data != 0 || got[1].Data != 2 || got[2].Data != 4 {
		t.Fatalf("filtered nearest = %+v", got)
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		items := make([]Item[int], n)
		ref := &brute{}
		for i := 0; i < n; i++ {
			r := randRect(rng, true)
			items[i] = Item[int]{Rect: r, Data: i}
			ref.insert(r, i)
		}
		tree, err := BulkLoad(Options{MaxEntries: 16}, items)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tree.Len())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 50; q++ {
			query := randRect(rng, false)
			want := ref.search(query)
			got := map[int]bool{}
			tree.Search(query, func(_ Rect, v int) bool { got[v] = true; return true })
			if len(got) != len(want) {
				t.Fatalf("n=%d query %d: got %d, want %d", n, q, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadInvalidRect(t *testing.T) {
	bad := Rect{Min: [Dims]float64{1, 0, 0}, Max: [Dims]float64{0, 0, 0}}
	if _, err := BulkLoad(Options{}, []Item[int]{{Rect: bad}}); err == nil {
		t.Fatal("invalid rect accepted by bulk load")
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := make([]Item[int], 500)
	for i := range items {
		items[i] = Item[int]{Rect: randRect(rng, true), Data: i}
	}
	tree, err := BulkLoad(Options{MaxEntries: 8}, items)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting and deleting after a bulk load must keep working.
	for i := 500; i < 700; i++ {
		if err := tree.Insert(randRect(rng, true), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		id := items[i].Data
		if !tree.Delete(items[i].Rect, func(v int) bool { return v == id }) {
			t.Fatalf("delete of bulk-loaded item %d failed", i)
		}
	}
	if tree.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tree.Len())
	}
}

func TestBulkLoadTighterThanInsert(t *testing.T) {
	// STR packing should produce no more nodes than repeated insertion.
	rng := rand.New(rand.NewSource(13))
	items := make([]Item[int], 5000)
	ins := MustNew[int](Options{MaxEntries: 16})
	for i := range items {
		r := randRect(rng, true)
		items[i] = Item[int]{Rect: r, Data: i}
		_ = ins.Insert(r, i)
	}
	bulk, err := BulkLoad(Options{MaxEntries: 16}, items)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.NodeCount() > ins.NodeCount() {
		t.Fatalf("bulk load used %d nodes, insertion used %d", bulk.NodeCount(), ins.NodeCount())
	}
	if bulk.Height() > ins.Height() {
		t.Fatalf("bulk height %d > insert height %d", bulk.Height(), ins.Height())
	}
}

func TestMixedOpsInvariants(t *testing.T) {
	// Randomized op sequence: invariants must hold throughout, under both
	// split algorithms.
	for _, split := range []SplitAlgorithm{QuadraticSplit, LinearSplit, RStarSplit} {
		rng := rand.New(rand.NewSource(77))
		tree := MustNew[int](Options{MaxEntries: 6, Split: split})
		ref := &brute{}
		nextID := 0
		for op := 0; op < 3000; op++ {
			if len(ref.rects) == 0 || rng.Float64() < 0.6 {
				r := randRect(rng, rng.Intn(2) == 0)
				if err := tree.Insert(r, nextID); err != nil {
					t.Fatal(err)
				}
				ref.insert(r, nextID)
				nextID++
			} else {
				i := rng.Intn(len(ref.rects))
				r, id := ref.rects[i], ref.ids[i]
				if !tree.Delete(r, func(v int) bool { return v == id }) {
					t.Fatalf("op %d (%v): delete of present item failed", op, split)
				}
				ref.delete(r, id)
			}
			if op%250 == 0 {
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("op %d (%v): %v", op, split, err)
				}
			}
		}
		if tree.Len() != len(ref.rects) {
			t.Fatalf("%v: Len %d != ref %d", split, tree.Len(), len(ref.rects))
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWeightedNearest(t *testing.T) {
	tree := MustNew[int](Options{})
	// Points along x with varying t (dim 2).
	for i := 0; i < 100; i++ {
		_ = tree.Insert(Point([Dims]float64{float64(i), 0, float64(i * 1000)}), i)
	}
	// Unit weights on x/y, zero on t: nearest to x=10.2 are 10, 11, 9.
	got := tree.WeightedNearest([Dims]float64{10.2, 0, 999999}, 3, NearestOptions[int]{Weights: [Dims]float64{1, 1, 0}})
	if len(got) != 3 || got[0].Data != 10 || got[1].Data != 11 || got[2].Data != 9 {
		t.Fatalf("weighted nearest = %+v", got)
	}
	// A distance bound cuts the result set: within 1.0 of x=10.2 only
	// 10 and 11 qualify.
	got = tree.WeightedNearest([Dims]float64{10.2, 0, 0}, 5, NearestOptions[int]{Weights: [Dims]float64{1, 1, 0}, MaxDist2: 1.0})
	if len(got) != 2 {
		t.Fatalf("bounded nearest returned %d, want 2", len(got))
	}
	// Weighting x heavily makes y-displaced points relatively closer:
	// point 999 scores (1*2)^2 = 4, while x-neighbor 10 scores
	// (20*0.2)^2 = 16.
	_ = tree.Insert(Point([Dims]float64{10.2, 2, 0}), 999)
	got = tree.WeightedNearest([Dims]float64{10.2, 0, 0}, 1, NearestOptions[int]{Weights: [Dims]float64{20, 1, 0}})
	if len(got) != 1 || got[0].Data != 999 {
		t.Fatalf("anisotropic nearest = %+v, want the y-offset point", got)
	}
	// Filter + bound compose.
	got = tree.WeightedNearest([Dims]float64{10.2, 0, 0}, 5, NearestOptions[int]{
		Weights: [Dims]float64{1, 1, 0}, MaxDist2: 4.0,
		Keep: func(v *int) bool { return *v%2 == 0 },
	})
	for _, n := range got {
		if n.Data != 999 && n.Data%2 != 0 {
			t.Fatalf("filter leaked %d", n.Data)
		}
	}
	// Empty tree / k=0.
	empty := MustNew[int](Options{})
	if empty.WeightedNearest([Dims]float64{}, 3, NearestOptions[int]{Weights: unitWeights}) != nil {
		t.Fatal("empty tree returned neighbors")
	}
	if tree.WeightedNearest([Dims]float64{}, 0, NearestOptions[int]{Weights: unitWeights}) != nil {
		t.Fatal("k=0 returned neighbors")
	}
}
