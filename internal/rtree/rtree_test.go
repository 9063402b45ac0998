package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// item is the test payload: an id stored at a rectangle the item
// carries, as index.Entry carries its representative's.
type item struct {
	r  Rect
	id int
}

func itemRect(it *item) Rect { return it.r }

// newTree is MustNew over test items.
func newTree(opts Options) *Tree[item] { return MustNew(opts, itemRect) }

// byID matches the item with the given id; anyItem matches every item.
func byID(id int) func(*item) bool { return func(it *item) bool { return it.id == id } }

func anyItem(*item) bool { return true }

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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.o, itemRect)
			if (err == nil) != c.ok {
				t.Fatalf("New(%+v) err = %v, want ok=%v", c.o, err, c.ok)
			}
		})
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

func TestNearMinDist2(t *testing.T) {
	r := Rect{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{2, 2, 2}}
	from := func(p [Dims]float64) float64 {
		n := Near{P: p, W: [Dims]float64{1, 1, 1}}
		return n.MinDist2(&r)
	}
	if got := from([Dims]float64{1, 1, 1}); got != 0 {
		t.Errorf("inside point MinDist2 = %v, want 0", got)
	}
	if got := from([Dims]float64{5, 1, 1}); got != 9 {
		t.Errorf("MinDist2 = %v, want 9", got)
	}
	if got := from([Dims]float64{3, 3, 1}); got != 2 {
		t.Errorf("corner MinDist2 = %v, want 2", got)
	}
	if got := from([Dims]float64{-1, -1, -1}); got != 3 {
		t.Errorf("negative corner MinDist2 = %v, want 3", got)
	}
	// Weights scale each gap; a zero weight removes the dimension.
	n := Near{P: [Dims]float64{5, 5, 99}, W: [Dims]float64{2, 0.5, 0}}
	if got := n.MinDist2(&r); got != 36+2.25 {
		t.Errorf("weighted MinDist2 = %v, want 38.25", got)
	}
	if got := (&Near{}).MinDist2(&r); got != 0 {
		t.Errorf("zero Near MinDist2 = %v, want 0", got)
	}
}

func TestInsertSearchMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		degenerate bool
	}{
		{"rstar boxes", false},
		{"rstar degenerate", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			tree := newTree(Options{MaxEntries: 8})
			ref := &brute{}
			for i := 0; i < 2000; i++ {
				r := randRect(rng, tc.degenerate)
				if err := tree.Insert(item{r, i}); err != nil {
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
				tree.Search(query, func(v item) bool {
					got[v.id] = true
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
	tree := newTree(Options{})
	bad := Rect{Min: [Dims]float64{1, 0, 0}, Max: [Dims]float64{0, 0, 0}}
	if err := tree.Insert(item{bad, 1}); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree := newTree(Options{MaxEntries: 16})
	for i := 0; i < 20000; i++ {
		if err := tree.Insert(item{randRect(rng, true), i}); err != nil {
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
	tree := newTree(Options{MaxEntries: 8})
	ref := &brute{}
	rects := make([]Rect, 1200)
	for i := range rects {
		rects[i] = randRect(rng, true)
		if err := tree.Insert(item{rects[i], i}); err != nil {
			t.Fatal(err)
		}
		ref.insert(rects[i], i)
	}
	// Delete in random order, checking invariants and parity as we go.
	perm := rng.Perm(len(rects))
	for step, idx := range perm {
		id := idx
		okTree := tree.Delete(&item{rects[idx], id}, byID(id))
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
			tree.Search(query, func(v item) bool { got[v.id] = true; return true })
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
	if err := tree.Insert(item{rects[0], 1}); err != nil {
		t.Fatal(err)
	}
	if got := tree.SearchAll(rects[0]); len(got) != 1 || got[0].id != 1 {
		t.Fatalf("reuse after emptying: got %v", got)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tree := newTree(Options{})
	r := Point([Dims]float64{1, 2, 3})
	if tree.Delete(&item{r: r}, anyItem) {
		t.Fatal("delete from empty tree succeeded")
	}
	if err := tree.Insert(item{r, 7}); err != nil {
		t.Fatal(err)
	}
	if tree.Delete(&item{r, 8}, byID(8)) {
		t.Fatal("delete with non-matching predicate succeeded")
	}
	other := Point([Dims]float64{9, 9, 9})
	if tree.Delete(&item{r: other}, anyItem) {
		t.Fatal("delete of absent rect succeeded")
	}
	if !tree.Delete(&item{r: r}, anyItem) {
		t.Fatal("delete of present rect failed")
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestDuplicateRects(t *testing.T) {
	// Many items may share one rectangle (several videos shot from the
	// same spot); deletion must remove exactly one, selectable by value.
	tree := newTree(Options{MaxEntries: 4})
	r := Point([Dims]float64{5, 5, 5})
	for i := 0; i < 50; i++ {
		if err := tree.Insert(item{r, i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !tree.Delete(&item{r, 31}, byID(31)) {
		t.Fatal("targeted delete failed")
	}
	if tree.Len() != 49 {
		t.Fatalf("Len = %d, want 49", tree.Len())
	}
	found := map[int]bool{}
	tree.Search(Point([Dims]float64{5, 5, 5}), func(v item) bool {
		found[v.id] = true
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
	tree := newTree(Options{})
	for i := 0; i < 500; i++ {
		_ = tree.Insert(item{randRect(rng, true), i})
	}
	all, _ := tree.Bounds()
	calls := 0
	tree.Search(all, func(item) bool {
		calls++
		return calls < 10
	})
	if calls != 10 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := newTree(Options{})
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		_ = tree.Insert(item{randRect(rng, false), i})
		want[i] = true
	}
	got := map[int]bool{}
	tree.Scan(func(v *item) bool { got[v.id] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("Scan visited %d items, want %d", len(got), len(want))
	}
	calls := 0
	tree.Scan(func(*item) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Scan early stop ignored: %d calls", calls)
	}
}

func TestBoundsEmpty(t *testing.T) {
	tree := newTree(Options{})
	if _, ok := tree.Bounds(); ok {
		t.Fatal("empty tree reports bounds")
	}
	r := Point([Dims]float64{1, 2, 3})
	_ = tree.Insert(item{r, 1})
	b, ok := tree.Bounds()
	if !ok || b != r {
		t.Fatalf("Bounds = %v, %v", b, ok)
	}
}

// kNearest runs the steered walk the way its callers do: keep the k
// best (dist2, id) seen, and answer every item with the k-th best
// distance once there are k. It reports the ids nearest first and the
// leaf slots offered.
func kNearest(s *Snapshot[item], q Rect, near Near, k int) (ids []int, offered int) {
	type cand struct {
		d2 float64
		id int
	}
	var best []cand
	s.SearchNear(q, near, math.Inf(1), func(v *item) float64 {
		offered++
		best = append(best, cand{near.MinDist2(&v.r), v.id})
		sort.Slice(best, func(i, j int) bool {
			if best[i].d2 != best[j].d2 {
				return best[i].d2 < best[j].d2
			}
			return best[i].id < best[j].id
		})
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			return math.Sqrt(best[k-1].d2)
		}
		return math.Inf(1)
	})
	for _, c := range best {
		ids = append(ids, c.id)
	}
	return ids, offered
}

var everything = Rect{
	Min: [Dims]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	Max: [Dims]float64{math.Inf(1), math.Inf(1), math.Inf(1)},
}

// The steered walk finds the k nearest exactly — ties by id included —
// while offering far fewer items than the tree holds, on default-width
// nodes and on nodes wider than the walk's stack buffer.
func TestSearchNearTopKMatchesBruteForce(t *testing.T) {
	for _, m := range []int{8, 16, 40} {
		rng := rand.New(rand.NewSource(17))
		tree := newTree(Options{MaxEntries: m})
		rects := make([]Rect, 2000)
		for i := range rects {
			rects[i] = randRect(rng, true)
			if i%10 == 0 && i > 0 {
				rects[i] = rects[i-1] // co-located: equal distances, ids decide
			}
			_ = tree.Insert(item{rects[i], i})
		}
		snap := tree.Publish()
		for trial := 0; trial < 50; trial++ {
			near := Near{
				P: [Dims]float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 1000},
				W: [Dims]float64{1 + rng.Float64(), 1, float64(trial % 2)},
			}
			k := 1 + rng.Intn(20)
			got, offered := kNearest(snap, everything, near, k)
			want := make([]int, len(rects))
			for i := range want {
				want[i] = i
			}
			sort.Slice(want, func(i, j int) bool {
				di, dj := near.MinDist2(&rects[want[i]]), near.MinDist2(&rects[want[j]])
				if di != dj {
					return di < dj
				}
				return want[i] < want[j]
			})
			if fmt.Sprint(got) != fmt.Sprint(want[:k]) {
				t.Fatalf("M=%d trial %d: %d nearest = %v, want %v", m, trial, k, got, want[:k])
			}
			if offered > len(rects)/2 {
				t.Fatalf("M=%d trial %d: the walk offered %d of %d items for k=%d", m, trial, offered, len(rects), k)
			}
		}
	}
}

// With no bound the steered walk is the plain range search: the same
// items at the same cost. The bound passed in prunes before the first
// callback, the bound handed back is the last one the callback gave,
// and a negative answer stops the walk.
func TestSearchNearBounds(t *testing.T) {
	tree := newTree(Options{})
	for i := 0; i < 400; i++ {
		_ = tree.Insert(item{Point([Dims]float64{float64(i), 0, float64(i % 7)}), i})
	}
	snap := tree.Publish()
	q := Rect{Min: [Dims]float64{50, -1, 0}, Max: [Dims]float64{350, 1, 3}}
	near := Near{P: [Dims]float64{200, 0, 0}, W: [Dims]float64{1, 1, 0}}

	plain := 0
	wantNodes, wantLeafs := tree.SearchCounted(q, func(item) bool { plain++; return true })
	seen := 0
	bound, nodes, leafs := snap.SearchNear(q, near, math.Inf(1), func(*item) float64 { seen++; return math.Inf(1) })
	if seen != plain || nodes != wantNodes || leafs != wantLeafs || !math.IsInf(bound, 1) {
		t.Fatalf("unbounded walk saw %d items over %d nodes / %d slots (bound %v); plain search %d over %d / %d",
			seen, nodes, leafs, bound, plain, wantNodes, wantLeafs)
	}

	// Items within 10 of x=200, dimension 2 in [0, 3]: the bound is
	// inclusive (x=190 and x=210 are exactly at it).
	var got []int
	bound, boundedNodes, _ := snap.SearchNear(q, near, 10, func(v *item) float64 { got = append(got, v.id); return 10 })
	sort.Ints(got)
	var want []int
	for i := 190; i <= 210; i++ {
		if i%7 <= 3 {
			want = append(want, i)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || bound != 10 {
		t.Fatalf("walk bounded at 10 offered %v (bound %v), want %v", got, bound, want)
	}
	if boundedNodes >= nodes {
		t.Fatalf("bounded walk visited %d nodes, unbounded %d", boundedNodes, nodes)
	}

	calls := 0
	bound, _, _ = snap.SearchNear(q, near, math.Inf(1), func(*item) float64 { calls++; return -1 })
	if calls != 1 || bound != -1 {
		t.Fatalf("a negative answer should stop the walk: %d calls, bound %v", calls, bound)
	}
	if _, n, _ := snap.SearchNear(q, near, -1, func(*item) float64 { t.Fatal("offered past a stop"); return 0 }); n != 1 {
		t.Fatalf("a walk entered already stopped visited %d nodes, want the root only", n)
	}
}

// The first leaf the steered walk reaches is the one nearest the point:
// with k=1 on separated points it offers a handful of slots, not the
// box.
func TestSearchNearVisitsNearestFirst(t *testing.T) {
	tree := newTree(Options{})
	for i := 0; i < 1000; i++ {
		_ = tree.Insert(item{Point([Dims]float64{float64(i % 40), float64(i / 40), 0}), i})
	}
	snap := tree.Publish()
	near := Near{P: [Dims]float64{17.2, 11.1, 0}, W: [Dims]float64{1, 1, 0}}
	got, offered := kNearest(snap, everything, near, 1)
	if len(got) != 1 || got[0] != 11*40+17 {
		t.Fatalf("nearest = %v, want %d", got, 11*40+17)
	}
	if offered > 3*snap.opts.MaxEntries {
		t.Fatalf("k=1 walk offered %d slots", offered)
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		items := make([]item, n)
		ref := &brute{}
		for i := 0; i < n; i++ {
			r := randRect(rng, true)
			items[i] = item{r, i}
			ref.insert(r, i)
		}
		tree, err := BulkLoad(Options{MaxEntries: 16}, itemRect, items)
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
			tree.Search(query, func(v item) bool { got[v.id] = true; return true })
			if len(got) != len(want) {
				t.Fatalf("n=%d query %d: got %d, want %d", n, q, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadInvalidRect(t *testing.T) {
	bad := Rect{Min: [Dims]float64{1, 0, 0}, Max: [Dims]float64{0, 0, 0}}
	if _, err := BulkLoad(Options{}, itemRect, []item{{r: bad}}); err == nil {
		t.Fatal("invalid rect accepted by bulk load")
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := make([]item, 500)
	for i := range items {
		items[i] = item{randRect(rng, true), i}
	}
	tree, err := BulkLoad(Options{MaxEntries: 8}, itemRect, items)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting and deleting after a bulk load must keep working.
	for i := 500; i < 700; i++ {
		if err := tree.Insert(item{randRect(rng, true), i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if !tree.Delete(&items[i], byID(items[i].id)) {
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
	items := make([]item, 5000)
	ins := newTree(Options{MaxEntries: 16})
	for i := range items {
		items[i] = item{randRect(rng, true), i}
		_ = ins.Insert(items[i])
	}
	bulk, err := BulkLoad(Options{MaxEntries: 16}, itemRect, items)
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

// CheckInvariants checks rectangles, not just shape: an internal
// rectangle that is not its child's exact MBR, and a leaf item whose
// derived rectangle is invalid, are both reported.
func TestCheckInvariantsCatchesBadRects(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	build := func(n int) *Tree[item] {
		tree := newTree(Options{MaxEntries: 8})
		for i := 0; i < n; i++ {
			_ = tree.Insert(item{randRect(rng, true), i})
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	loose := build(300)
	loose.root.rects[1].Max[0]++ // still contains the child, no longer tight
	if err := loose.CheckInvariants(); err == nil {
		t.Fatal("a loose internal rect went unnoticed")
	}
	// A root leaf has no parent rect to disagree with: only the derived
	// rectangle's own validity can catch it.
	bad := build(5)
	r := &bad.root.items[2].r
	r.Min[2], r.Max[2] = r.Max[2]+1, r.Min[2] // inverted interval
	if err := bad.CheckInvariants(); err == nil {
		t.Fatal("an invalid derived leaf rect went unnoticed")
	}
}

func TestMixedOpsInvariants(t *testing.T) {
	// Randomized op sequence: invariants must hold throughout.
	rng := rand.New(rand.NewSource(77))
	tree := newTree(Options{MaxEntries: 6})
	ref := &brute{}
	nextID := 0
	for op := 0; op < 3000; op++ {
		if len(ref.rects) == 0 || rng.Float64() < 0.6 {
			r := randRect(rng, rng.Intn(2) == 0)
			if err := tree.Insert(item{r, nextID}); err != nil {
				t.Fatal(err)
			}
			ref.insert(r, nextID)
			nextID++
		} else {
			i := rng.Intn(len(ref.rects))
			r, id := ref.rects[i], ref.ids[i]
			if !tree.Delete(&item{r, id}, byID(id)) {
				t.Fatalf("op %d: delete of present item failed", op)
			}
			ref.delete(r, id)
		}
		if op%250 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if tree.Len() != len(ref.rects) {
		t.Fatalf("Len %d != ref %d", tree.Len(), len(ref.rects))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
