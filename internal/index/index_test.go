package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/segment"
)

var city = geo.Point{Lat: 40.0, Lng: 116.3}

// randEntry scatters representatives across a ~5 km square and a day of
// capture times.
func randEntry(rng *rand.Rand, id uint64) Entry {
	p := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
	start := int64(rng.Intn(86_400_000))
	return Entry{
		ID:       id,
		Provider: fmt.Sprintf("client-%d", id%17),
		Rep: segment.Representative{
			FoV:         fovAt(p, rng.Float64()*360),
			StartMillis: start,
			EndMillis:   start + int64(rng.Intn(60_000)),
		},
	}
}

func fovAt(p geo.Point, theta float64) fov.FoV {
	return fov.FoV{P: p, Theta: theta}
}

func TestEntryValidate(t *testing.T) {
	good := Entry{ID: 1, Rep: segment.Representative{FoV: fovAt(city, 10), StartMillis: 5, EndMillis: 9}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	inverted := good
	inverted.Rep.StartMillis, inverted.Rep.EndMillis = 9, 5
	if err := inverted.Validate(); err == nil {
		t.Fatal("inverted interval accepted")
	}
	badPos := good
	badPos.Rep.FoV.P.Lat = 99
	if err := badPos.Validate(); err == nil {
		t.Fatal("invalid position accepted")
	}
}

func TestImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rt := NewRTree()
	lin := NewLinear()
	for i := 0; i < 3000; i++ {
		e := randEntry(rng, uint64(i))
		if err := rt.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := lin.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Len() != 3000 || lin.Len() != 3000 {
		t.Fatalf("lens %d/%d", rt.Len(), lin.Len())
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		center := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
		rect := geo.RectAround(center, 100+rng.Float64()*500)
		ts := int64(rng.Intn(86_400_000))
		te := ts + int64(rng.Intn(3_600_000))
		a := ids(rt.Search(rect, ts, te))
		b := ids(lin.Search(rect, ts, te))
		if len(a) != len(b) {
			t.Fatalf("query %d: rtree %d hits, linear %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: hit sets differ at %d: %d vs %d", q, i, a[i], b[i])
			}
		}
	}
}

func ids(entries []Entry) []uint64 {
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestTemporalFiltering(t *testing.T) {
	for _, impl := range []Index{NewRTree(), NewLinear()} {
		e := Entry{ID: 1, Rep: segment.Representative{
			FoV: fovAt(city, 0), StartMillis: 1000, EndMillis: 2000,
		}}
		if err := impl.Insert(e); err != nil {
			t.Fatal(err)
		}
		rect := geo.RectAround(city, 100)
		cases := []struct {
			ts, te int64
			want   int
		}{
			{0, 500, 0},     // before
			{2500, 3000, 0}, // after
			{0, 1000, 1},    // touches start
			{2000, 3000, 1}, // touches end
			{1200, 1800, 1}, // inside
			{0, 5000, 1},    // covers
		}
		for _, c := range cases {
			if got := len(impl.Search(rect, c.ts, c.te)); got != c.want {
				t.Errorf("%T: interval [%d,%d] returned %d, want %d", impl, c.ts, c.te, got, c.want)
			}
		}
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	for _, impl := range []Index{NewRTree(), NewLinear()} {
		e := Entry{ID: 42, Rep: segment.Representative{FoV: fovAt(city, 0)}}
		if err := impl.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := impl.Insert(e); err == nil {
			t.Errorf("%T: duplicate id accepted", impl)
		}
		if impl.Len() != 1 {
			t.Errorf("%T: Len = %d after duplicate insert", impl, impl.Len())
		}
	}
}

func TestRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, impl := range []ServerIndex{NewRTree(), oracleIndex{NewLinear()}} {
		var entries []Entry
		for i := 0; i < 500; i++ {
			e := randEntry(rng, uint64(i))
			entries = append(entries, e)
			if err := impl.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		if impl.RemoveBatch([]Entry{randEntry(rng, 9999)}) != 0 {
			t.Errorf("%T: removing absent id succeeded", impl)
		}
		// One batch: the first half, with an absent entry among them.
		batch := append([]Entry{randEntry(rng, 9999)}, entries[:250]...)
		if n := impl.RemoveBatch(batch); n != 250 {
			t.Errorf("%T: removed %d of 250 present entries", impl, n)
		}
		if impl.RemoveBatch(entries[:1]) != 0 {
			t.Errorf("%T: double remove succeeded", impl)
		}
		if impl.Len() != 250 {
			t.Errorf("%T: Len = %d, want 250", impl, impl.Len())
		}
		// Removed ids must be gone; surviving ids must be findable.
		rect := geo.RectAround(city, 10000)
		got := map[uint64]bool{}
		for _, e := range impl.Search(rect, 0, 1<<60) {
			got[e.ID] = true
		}
		for i, e := range entries {
			want := i >= 250
			if got[e.ID] != want {
				t.Fatalf("%T: id %d present=%v, want %v", impl, e.ID, got[e.ID], want)
			}
		}
	}
	// The R-tree finds an entry by its rectangle: an id it holds, given
	// at another position, is not removed.
	rt := NewRTree()
	entries := make([]Entry, 500)
	for i := range entries {
		entries[i] = randEntry(rng, uint64(i))
		_ = rt.Insert(entries[i])
	}
	moved := entries[0]
	moved.Rep.FoV.P.Lat += 0.001
	if rt.RemoveBatch([]Entry{moved}) != 0 || rt.Len() != 500 {
		t.Fatalf("an entry given at another position was removed (Len %d)", rt.Len())
	}
	// The R-tree variant must stay structurally sound after heavy removal.
	for i := 0; i < 400; i++ {
		rt.RemoveBatch(entries[i : i+1])
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants compares the id set with the leaves' ids, not just
// their counts: an id planted in the set, or one dropped from it, is
// reported even when the counts still agree.
func TestCheckInvariantsCatchesIDSetDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := NewRTree()
	for id := uint64(1); id <= 200; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	x.ids.Add(9999)
	if err := x.CheckInvariants(); err == nil {
		t.Fatal("an id in the set but in no leaf went unnoticed")
	}
	x.ids.Delete(9999)
	x.ids.Delete(7)
	if err := x.CheckInvariants(); err == nil {
		t.Fatal("a leaf id missing from the set went unnoticed")
	}
	x.ids.Add(9999) // counts agree again; contents do not
	if err := x.CheckInvariants(); err == nil {
		t.Fatal("a swapped id went unnoticed")
	}
}

func TestInsertInvalidEntry(t *testing.T) {
	for _, impl := range []Index{NewRTree(), NewLinear()} {
		e := Entry{ID: 1, Rep: segment.Representative{FoV: fovAt(geo.Point{Lat: 95, Lng: 0}, 0)}}
		if err := impl.Insert(e); err == nil {
			t.Errorf("%T: invalid entry accepted", impl)
		}
	}
}

// TestEmptyBatch: an empty batch is accepted and stores nothing.
func TestEmptyBatch(t *testing.T) {
	x := NewRTree()
	if err := x.InsertBatch(nil); err != nil || x.Len() != 0 {
		t.Fatalf("empty batch: err %v, Len %d", err, x.Len())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchAllOrNothing: a batch that fails anywhere — a duplicate of a
// stored id, a duplicate inside the batch, an invalid entry — leaves no
// trace, and a good batch commits whole.
func TestBatchAllOrNothing(t *testing.T) {
	x := NewRTree()
	mk := func(id uint64, start int64) Entry {
		return Entry{ID: id, Provider: "p", Rep: segment.Representative{
			FoV: fovAt(city, 0), StartMillis: start, EndMillis: start + 100,
		}}
	}
	if err := x.Insert(mk(3, 0)); err != nil {
		t.Fatal(err)
	}
	rect := geo.RectAround(city, 100)
	bad := mk(30, 0)
	bad.Rep.EndMillis = -1
	for name, batch := range map[string][]Entry{
		"stored duplicate":   {mk(10, 0), mk(11, 5000), mk(3, 9000), mk(12, 13_000)},
		"in-batch duplicate": {mk(20, 0), mk(20, 5000)},
		"invalid entry":      {mk(31, 0), bad},
	} {
		if err := x.InsertBatch(batch); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if got := ids(x.Search(rect, 0, 1<<40)); x.Len() != 1 || len(got) != 1 || got[0] != 3 {
			t.Fatalf("%s: contents after the failed batch = %v (Len %d), want [3]", name, got, x.Len())
		}
		if x.RemoveBatch(batch[:1]) != 0 {
			t.Fatalf("%s: rolled-back id %d removable", name, batch[0].ID)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	good := []Entry{mk(40, 0), mk(41, 5000), mk(42, 5100), mk(43, 0)}
	good[3].Rep.EndMillis = 10_000_000
	if err := x.InsertBatch(good); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 5 {
		t.Fatalf("Len = %d, want 5", x.Len())
	}
	for _, e := range good {
		if x.RemoveBatch([]Entry{e}) != 1 {
			t.Fatalf("committed id %d not removable", e.ID)
		}
	}
}

// bulkLoad is BulkLoadRTree over a slice.
func bulkLoad(entries []Entry) (*RTree, error) {
	return BulkLoadRTree(0, len(entries), func(add func(*Entry) error) error {
		for i := range entries {
			if err := add(&entries[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestBulkLoadRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = randEntry(rng, uint64(i))
	}
	bulk, err := bulkLoad(entries)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != 2000 {
		t.Fatalf("Len = %d", bulk.Len())
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Parity with incremental construction.
	inc := NewRTree()
	for _, e := range entries {
		_ = inc.Insert(e)
	}
	rect := geo.RectAround(city, 1500)
	a := ids(bulk.Search(rect, 0, 86_400_000))
	b := ids(inc.Search(rect, 0, 86_400_000))
	if len(a) != len(b) {
		t.Fatalf("bulk %d hits, incremental %d", len(a), len(b))
	}
	// Bulk-loaded trees stay mutable.
	if bulk.RemoveBatch(entries[:1]) != 1 {
		t.Fatal("remove from bulk-loaded index failed")
	}
	dupErr := func() error {
		return bulk.Insert(entries[1]) // id still present
	}()
	if dupErr == nil {
		t.Fatal("duplicate insert into bulk-loaded index accepted")
	}
}

func TestBulkLoadDuplicateID(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := randEntry(rng, 1)
	if _, err := bulkLoad([]Entry{e, e}); err == nil {
		t.Fatal("duplicate ids accepted by bulk load")
	}
}

func TestConcurrentUploadAndQuery(t *testing.T) {
	// The paper's server faces pervasive contributors and inquirers at
	// once; the index must tolerate concurrent Insert/Search/Remove.
	rt := NewRTree()
	const writers, readers, perWriter = 4, 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i)
				e := randEntry(rng, id)
				if err := rt.Insert(e); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%10 == 0 {
					rt.RemoveBatch([]Entry{e}) // churn
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 200; i++ {
				center := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
				rt.Search(geo.RectAround(center, 500), 0, 86_400_000)
				rt.Len()
			}
		}(r)
	}
	wg.Wait()
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNearestNarrowWindowIsBounded pins the unbounded-drain fix: with
// fewer than k qualifying entries in a box over the whole city, so that
// the bound never engages, a nearest walk used to expand the whole tree,
// because the zero-weight time axis was only tested once an entry was
// popped. The window now prunes subtrees before they are queued, so a
// one-minute question over a 24 h corpus visits only the nodes whose
// time extent overlaps that minute: under half of the R* tree, whose
// nodes are shaped for questions of hours and hundreds of metres (every
// node before the fix).
func TestNearestNarrowWindowIsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	batch := make([]Entry, 20_000)
	for i := range batch {
		batch[i] = randEntry(rng, uint64(i+1))
	}
	want := NewLinear()
	if err := want.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	const ts, te = 43_200_000, 43_260_000
	all := geo.RectAround(city, 20_000)
	oracle := want.Search(all, ts, te)
	x := NewRTree()
	if err := x.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	var got int
	visits, _ := x.Visit(city, 20_000, 0, ts, te, func(*Entry) float64 {
		got++
		return math.Inf(1)
	})
	if got != len(oracle) || got == 0 {
		t.Fatalf("got %d neighbours, oracle %d", got, len(oracle))
	}
	nodes := int64(x.NodeCount())
	t.Logf("narrow-window nearest visited %d of %d nodes", visits, nodes)
	if visits*2 > nodes {
		t.Fatalf("narrow-window nearest visited %d of %d nodes; the window should prune most of the tree", visits, nodes)
	}
}
