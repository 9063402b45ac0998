package index

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/obs"
)

// cachedSharded builds a populated sharded index wrapped in a ReadCache
// with admission on the first miss (MinCellHits 1), so tests exercise
// the hit path without priming rituals.
func cachedSharded(t *testing.T, n int, opts ReadCacheOptions) (*ReadCache, *Sharded) {
	t.Helper()
	x, err := NewSharded(ShardedOptions{WindowMillis: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for id := uint64(1); id <= uint64(n); id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	if opts.MinCellHits == 0 {
		opts.MinCellHits = 1
	}
	rc, err := NewReadCache(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rc, x
}

func TestReadCacheRejectsOracle(t *testing.T) {
	if _, err := NewReadCache(oracleIndex{NewLinear()}, ReadCacheOptions{}); err == nil {
		t.Fatal("NewReadCache accepted an index without snapshot reads")
	}
}

// A second identical query must be a hit with the same answer, and a
// mutation that touches the covered shards must invalidate the entry
// rather than let it serve the pre-mutation result.
func TestReadCacheHitAndInvalidation(t *testing.T) {
	rc, x := cachedSharded(t, 300, ReadCacheOptions{})
	q := geo.RectAround(city, 4000)
	const ts, te = 0, 86_400_000

	first := rc.Search(q, ts, te)
	if rc.Misses() != 1 || rc.Hits() != 0 {
		t.Fatalf("after first search: hits=%d misses=%d", rc.Hits(), rc.Misses())
	}
	second := rc.Search(q, ts, te)
	if rc.Hits() != 1 {
		t.Fatalf("second identical search was not a hit (hits=%d misses=%d)", rc.Hits(), rc.Misses())
	}
	if len(first) != len(second) {
		t.Fatalf("hit returned %d entries, miss computed %d", len(second), len(first))
	}

	// Mutate inside the cached window: the next search must not reuse
	// the stale result.
	rng := rand.New(rand.NewSource(99))
	if err := x.Insert(randEntry(rng, 10_001)); err != nil {
		t.Fatal(err)
	}
	third := rc.Search(q, ts, te)
	if rc.Invalidations() == 0 {
		t.Fatal("mutation did not invalidate the cached entry")
	}
	want := ids(x.Search(q, ts, te))
	got := ids(third)
	if len(got) != len(want) {
		t.Fatalf("post-mutation search returned %d entries, index holds %d in range", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-mutation search diverges from index at %d", i)
		}
	}
	if err := rc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// With the default threshold of 2, a one-off query must not be cached;
// the second query of the same box admits it.
func TestReadCacheAdmissionThreshold(t *testing.T) {
	rc, _ := cachedSharded(t, 200, ReadCacheOptions{MinCellHits: 2})
	q := geo.RectAround(city, 2000)
	rc.Search(q, 0, 86_400_000)
	rc.Search(q, 0, 86_400_000)
	if rc.Hits() != 0 {
		t.Fatalf("second search hit before the cell reached the admission threshold")
	}
	rc.Search(q, 0, 86_400_000)
	if rc.Hits() != 1 {
		t.Fatalf("third search of an admitted cell was not a hit (hits=%d)", rc.Hits())
	}
}

func TestReadCacheEvictionBound(t *testing.T) {
	rc, _ := cachedSharded(t, 200, ReadCacheOptions{Capacity: 2})
	for i := 0; i < 6; i++ {
		q := geo.RectAround(city, 500+float64(i)*250)
		rc.Search(q, 0, 86_400_000) // each distinct box stores on its first miss
	}
	rc.mu.RLock()
	entries := len(rc.m)
	rc.mu.RUnlock()
	if entries > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", entries)
	}
	if rc.Evictions() < 4 {
		t.Fatalf("expected >=4 evictions filling 6 boxes into capacity 2, got %d", rc.Evictions())
	}
}

// CheckInvariants must catch a cached entry whose probe lies: plant one
// that claims validity but holds the wrong result.
func TestReadCacheInvariantsCatchBadEntry(t *testing.T) {
	rc, _ := cachedSharded(t, 50, ReadCacheOptions{})
	key := readKey{rect: geo.RectAround(city, 1000), start: 0, end: 86_400_000}
	rc.mu.Lock()
	rc.m[key] = &cacheEntry{res: []Entry{{ID: 424242}}, valid: func() bool { return true }}
	rc.mu.Unlock()
	if err := rc.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a fabricated valid-but-wrong cache entry")
	}
}

func TestReadCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rc, _ := cachedSharded(t, 100, ReadCacheOptions{Registry: reg})
	q := geo.RectAround(city, 3000)
	rc.Search(q, 0, 86_400_000)
	rc.Search(q, 0, 86_400_000)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"fovr_readcache_hits_total 1",
		"fovr_readcache_misses_total 1",
		"fovr_readcache_entries 1",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics exposition missing %q:\n%s", name, text)
		}
	}
	rc.UnregisterMetrics()
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fovr_readcache") {
		t.Fatal("fovr_readcache metrics survive UnregisterMetrics")
	}
}

// The visiting read path allocates nothing — on the plain tree, and on
// a cache hit, which hands out references into the cached slice — and
// the collecting Search costs its reference buffer's growth plus one
// exact-size copy.
func TestSnapshotReadAllocs(t *testing.T) {
	x := newRTree(t)
	rng := rand.New(rand.NewSource(5))
	for id := uint64(1); id <= 400; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	q := geo.RectAround(city, 3000)
	const ts, te = 0, 86_400_000
	hits := 0
	count := func(*Entry) float64 { hits++; return math.Inf(1) }
	if got := testing.AllocsPerRun(200, func() {
		x.Visit(q, ts, te, city, count)
	}); got != 0 {
		t.Fatalf("RTree.Visit allocates %.1f/op, want 0", got)
	}
	if n := len(x.Search(q, ts, te)); n < 50 {
		t.Fatalf("only %d hits: the pins below would not see a per-hit cost", n)
	}

	rc, _ := cachedSharded(t, 400, ReadCacheOptions{})
	rc.Search(q, ts, te) // miss + store
	rc.Search(q, ts, te) // warm hit
	if got := testing.AllocsPerRun(200, func() {
		rc.Visit(q, ts, te, city, count)
	}); got != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", got)
	}
	// Growing the reference buffer is the only other cost of Search.
	grow := testing.AllocsPerRun(200, func() {
		visitRefs(rc, q, ts, te)
	})
	if got := testing.AllocsPerRun(200, func() {
		rc.Search(q, ts, te)
	}); got > grow+1 {
		t.Fatalf("cached Search allocates %.1f/op, reference form %.1f/op: want one more at most", got, grow)
	}
}
