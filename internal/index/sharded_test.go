package index

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/segment"
)

// newShardedT builds a sharded index with the given window, failing the
// test on construction errors. Window 0 selects the default.
func newShardedT(t *testing.T, windowMillis int64) *Sharded {
	t.Helper()
	x, err := NewSharded(ShardedOptions{WindowMillis: windowMillis})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestShardedOptionValidation(t *testing.T) {
	cases := []ShardedOptions{
		{WindowMillis: -1},
		{SpatialShards: -3},
		{SpatialShards: 5000},
	}
	for _, o := range cases {
		if _, err := NewSharded(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	x, err := NewSharded(ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x.WindowMillis() != DefaultShardWindowMillis {
		t.Fatalf("default window = %d", x.WindowMillis())
	}
}

func TestShardedPartitioning(t *testing.T) {
	// One-second windows: a day of randEntry start times spreads over
	// many shards, and the 0–60 s durations exceed the window often,
	// exercising the spatial fallback set too.
	x := newShardedT(t, 1000)
	lin := NewLinear()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		e := randEntry(rng, uint64(i))
		if err := x.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := lin.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if x.Len() != 2000 {
		t.Fatalf("Len = %d", x.Len())
	}
	if n := x.NumShards(); n < 16 {
		t.Fatalf("NumShards = %d, expected the day to spread over many shards", n)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rect := geo.RectAround(city, 10_000)
	a := ids(x.Search(rect, 0, 1<<40))
	b := ids(lin.Search(rect, 0, 1<<40))
	if len(a) != len(b) {
		t.Fatalf("sharded %d hits, linear %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestShardedSpatialFallback(t *testing.T) {
	x := newShardedT(t, 1000)
	long := Entry{ID: 1, Rep: segment.Representative{
		FoV: fovAt(city, 0), StartMillis: 0, EndMillis: 50_000, // 50x the window
	}}
	short := Entry{ID: 2, Rep: segment.Representative{
		FoV: fovAt(city, 0), StartMillis: 100, EndMillis: 600,
	}}
	for _, e := range []Entry{long, short} {
		if err := x.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// The over-long segment must not sit in any time shard (that is what
	// CheckInvariants enforces), yet a query deep inside its interval —
	// far from any populated time window — must still find it.
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rect := geo.RectAround(city, 100)
	got := ids(x.Search(rect, 40_000, 45_000))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("mid-interval query = %v, want [1]", got)
	}
	got = ids(x.Search(rect, 0, 1000))
	if len(got) != 2 {
		t.Fatalf("early query = %v, want both", got)
	}
	// Removing the long entry empties its spatial shard, which then stops
	// counting toward NumShards.
	before := x.NumShards()
	if !x.Remove(1) {
		t.Fatal("remove failed")
	}
	if after := x.NumShards(); after != before-1 {
		t.Fatalf("NumShards %d -> %d after emptying the spatial shard", before, after)
	}
}

func TestShardedWindowBoundaries(t *testing.T) {
	x := newShardedT(t, 1000)
	lin := NewLinear()
	entries := []Entry{
		{ID: 1, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 0, EndMillis: 500}},
		{ID: 2, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 999, EndMillis: 1999}},   // crosses into window 1
		{ID: 3, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 1000, EndMillis: 1500}},  // exactly on the boundary
		{ID: 4, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 2000, EndMillis: 2000}},  // zero duration
		{ID: 5, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: -500, EndMillis: -100}},  // pre-epoch
		{ID: 6, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: -1000, EndMillis: -800}}, // exact negative boundary
	}
	for _, e := range entries {
		if err := x.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := lin.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rect := geo.RectAround(city, 100)
	intervals := [][2]int64{
		{0, 0}, {500, 999}, {1000, 1000}, {1500, 1500}, {1999, 2000},
		{-600, -400}, {-1000, -900}, {-2000, -1001}, {3000, 4000}, {-2000, 3000},
	}
	for _, iv := range intervals {
		a := ids(x.Search(rect, iv[0], iv[1]))
		b := ids(lin.Search(rect, iv[0], iv[1]))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("interval %v: sharded %v, linear %v", iv, a, b)
		}
	}
}

func TestShardedDuplicateRejected(t *testing.T) {
	x := newShardedT(t, 1000)
	e := Entry{ID: 7, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 10, EndMillis: 20}}
	if err := x.Insert(e); err != nil {
		t.Fatal(err)
	}
	// Same id in a different shard is still a duplicate: the id map is
	// global even though the trees are not.
	e2 := e
	e2.Rep.StartMillis, e2.Rep.EndMillis = 50_000, 50_010
	if err := x.Insert(e2); err == nil {
		t.Fatal("duplicate id accepted across shards")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d", x.Len())
	}
}

func TestShardedBatchAllOrNothing(t *testing.T) {
	x := newShardedT(t, 1000)
	mk := func(id uint64, start int64) Entry {
		return Entry{ID: id, Provider: "p", Rep: segment.Representative{
			FoV: fovAt(city, 0), StartMillis: start, EndMillis: start + 100,
		}}
	}
	if err := x.Insert(mk(3, 0)); err != nil {
		t.Fatal(err)
	}

	// A duplicate in the middle of a batch spanning several shards must
	// leave no trace of the batch.
	batch := []Entry{mk(10, 0), mk(11, 5000), mk(3, 9000), mk(12, 13_000)}
	if err := x.InsertBatch(batch); err == nil {
		t.Fatal("batch with duplicate accepted")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d after failed batch, want 1", x.Len())
	}
	rect := geo.RectAround(city, 100)
	if got := ids(x.Search(rect, 0, 1<<40)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("post-rollback contents = %v", got)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A duplicate within the batch itself.
	if err := x.InsertBatch([]Entry{mk(20, 0), mk(20, 5000)}); err == nil {
		t.Fatal("batch with internal duplicate accepted")
	}
	if x.Remove(20) {
		t.Fatal("rolled-back id removable")
	}

	// An invalid entry fails validation before anything is touched.
	bad := mk(30, 0)
	bad.Rep.EndMillis = -1
	if err := x.InsertBatch([]Entry{mk(31, 0), bad}); err == nil {
		t.Fatal("batch with invalid entry accepted")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d", x.Len())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// And a healthy batch spanning time shards and the spatial fallback.
	good := []Entry{mk(40, 0), mk(41, 5000), mk(42, 5100),
		{ID: 43, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 0, EndMillis: 10_000}}}
	if err := x.InsertBatch(good); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 5 {
		t.Fatalf("Len = %d, want 5", x.Len())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, e := range good {
		if !x.Remove(e.ID) {
			t.Fatalf("committed id %d not removable", e.ID)
		}
	}
}

func TestShardedEmptyBatch(t *testing.T) {
	x := newShardedT(t, 1000)
	if err := x.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 0 {
		t.Fatalf("Len = %d", x.Len())
	}
}

func TestShardedAggregates(t *testing.T) {
	x := newShardedT(t, 1000)
	rng := rand.New(rand.NewSource(33))
	entries := make([]Entry, 500)
	for i := range entries {
		entries[i] = randEntry(rng, uint64(i))
	}
	if err := x.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	got := ids(x.Entries())
	if len(got) != 500 {
		t.Fatalf("Entries returned %d", len(got))
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("Entries missing id %d", i)
		}
	}
	if x.Height() < 1 {
		t.Fatalf("Height = %d", x.Height())
	}
	if x.NodeCount() < x.NumShards() {
		t.Fatalf("NodeCount = %d with %d shards", x.NodeCount(), x.NumShards())
	}
	if st := x.TreeStats(); st.Inserts != 500 {
		t.Fatalf("TreeStats.Inserts = %d", st.Inserts)
	}
}

func TestShardedSearchTraceCost(t *testing.T) {
	x := newShardedT(t, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		if err := x.Insert(randEntry(rng, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	hits, nodes, scanned := visitRefs(x, geo.RectAround(city, 10_000), 0, 86_400_000)
	if len(hits) != 300 {
		t.Fatalf("hits = %d", len(hits))
	}
	// The walk must report the summed traversal cost of every shard
	// it visited: at minimum each returned entry was scanned in a leaf.
	if scanned < 300 || nodes < int64(x.NumShards()) {
		t.Fatalf("traversal cost nodes=%d leafs=%d, shards=%d", nodes, scanned, x.NumShards())
	}
}

func TestShardedMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	x, err := NewSharded(ShardedOptions{WindowMillis: 1000, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i, start := range []int64{0, 5000, 9000} {
		e := Entry{ID: uint64(i + 1), Rep: segment.Representative{
			FoV: fovAt(city, 0), StartMillis: start, EndMillis: start + 100,
		}}
		if err := x.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	x.Search(geo.RectAround(city, 100), 0, 10_000)
	prom := reg.Prometheus()
	for _, want := range []string{
		"fovr_index_shards 3",
		`fovr_index_shard_entries{shard="t0"} 1`,
		`fovr_index_shard_nodes{shard="t5"}`,
		`fovr_index_fanout_shards_count 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("scrape missing %q:\n%s", want, prom)
		}
	}
	// Unregistering (the snapshot-swap path) must drop every shard gauge.
	x.UnregisterMetrics()
	prom = reg.Prometheus()
	if strings.Contains(prom, "fovr_index_shard") {
		t.Fatalf("shard metrics survive UnregisterMetrics:\n%s", prom)
	}
	// Shards created while unregistered stay silent; re-registering
	// exposes them.
	e := Entry{ID: 99, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: 42_000, EndMillis: 42_100}}
	if err := x.Insert(e); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reg.Prometheus(), `shard="t42"`) {
		t.Fatal("unregistered index still publishing new shards")
	}
	x.RegisterMetrics()
	if !strings.Contains(reg.Prometheus(), `fovr_index_shard_entries{shard="t42"} 1`) {
		t.Fatal("re-register did not restore shard gauges")
	}
}

// TestShardedConcurrentMutationStress is the race-stress suite of the
// issue: batch writers and removers churn the index while readers run
// traced searches and nearest-neighbour queries. Run under -race this
// exercises every lock-ordering path (stripe vs shard vs shard-map);
// afterwards the structure must pass full invariant checking and agree
// with a linear oracle over the surviving entries.
func TestShardedConcurrentMutationStress(t *testing.T) {
	x, err := NewSharded(ShardedOptions{WindowMillis: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, batches, batchLen = 4, 4, 30, 16
	survivors := make([][]Entry, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			next := uint64(w * 1_000_000)
			for b := 0; b < batches; b++ {
				batch := make([]Entry, batchLen)
				for i := range batch {
					batch[i] = randEntry(rng, next)
					next++
				}
				if err := x.InsertBatch(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				// Remove a few of this writer's own committed entries;
				// the rest survive to the final oracle comparison.
				for i, e := range batch {
					if i%4 == 0 {
						if !x.Remove(e.ID) {
							t.Errorf("writer %d: committed id %d not removable", w, e.ID)
							return
						}
						continue
					}
					survivors[w] = append(survivors[w], e)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 150; i++ {
				center := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
				ts := int64(rng.Intn(86_400_000))
				te := ts + int64(rng.Intn(3_600_000))
				x.Search(geo.RectAround(center, 500), ts, te)
				x.Nearest(center, ts, te, 5, 1000, nil)
				x.Len()
				x.NumShards()
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	lin := NewLinear()
	for _, ss := range survivors {
		for _, e := range ss {
			if err := lin.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if x.Len() != lin.Len() {
		t.Fatalf("sharded holds %d entries, oracle %d", x.Len(), lin.Len())
	}
	rect := geo.RectAround(city, 10_000)
	a := ids(x.Search(rect, 0, 1<<40))
	b := ids(lin.Search(rect, 0, 1<<40))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-stress contents diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
