package index

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/rtree"
)

// Read-cache defaults; ReadCacheOptions zero values select these.
const (
	defaultReadCacheCapacity  = 1024
	defaultReadCacheMinHits   = 2
	defaultReadCacheCellDeg   = 0.01 // ~1.1 km, the hotspot-sketch grid
	defaultReadCacheSketchLen = 256
)

// ReadCacheOptions tunes a ReadCache.
type ReadCacheOptions struct {
	// Capacity bounds the number of cached query boxes. Zero selects 1024.
	Capacity int
	// MinCellHits is how many times a query's hot cell must have been
	// seen before results for that cell are worth caching. Zero selects 2:
	// the second miss on a cell admits it.
	MinCellHits int64
	// CellDegrees is the admission grid pitch: queries are bucketed by the
	// 2-D cell containing their box center, the same 0.01° quantization
	// the hotspot sketches use. Zero selects 0.01.
	CellDegrees float64
	// SketchLen is the Space-Saving sketch capacity backing admission.
	// Zero selects 256.
	SketchLen int
	// Registry, when non-nil, receives the fovr_readcache_* metrics.
	Registry *obs.Registry
}

func (o ReadCacheOptions) withDefaults() ReadCacheOptions {
	if o.Capacity <= 0 {
		o.Capacity = defaultReadCacheCapacity
	}
	if o.MinCellHits <= 0 {
		o.MinCellHits = defaultReadCacheMinHits
	}
	if o.CellDegrees <= 0 {
		o.CellDegrees = defaultReadCacheCellDeg
	}
	if o.SketchLen <= 0 {
		o.SketchLen = defaultReadCacheSketchLen
	}
	return o
}

// snapshotSearcher is the package-internal contract an index must offer
// to sit behind a ReadCache: an unbounded search of a snapshot that
// also returns a validity probe (true while a fresh search would still
// give the same answer). RTree and Sharded implement it; Linear does not.
type snapshotSearcher interface {
	searchForCache(r geo.Rect, startMillis, endMillis int64) (hits []Entry, nodes, scanned int64, valid func() bool)
	ReadEpoch() uint64
}

// readKey identifies one cacheable search exactly. The rectangle is NOT
// quantized: quantization decides what is worth caching (admission), not
// what a key means — conflating nearby boxes would return wrong results.
type readKey struct {
	rect  geo.Rect
	start int64
	end   int64
}

// readCell is a quantized query-center cell, the admission sketch's key.
type readCell struct {
	lat int32
	lng int32
}

// cacheEntry is one cached result: the cache's own, never rewritten copy
// of the hits — a hit hands out references into it — plus the
// epoch-validity probe captured when it was computed.
type cacheEntry struct {
	res   []Entry
	valid func() bool
}

// ReadCache wraps a snapshot-reading index with a bounded, epoch-
// invalidated cache of search results for hot cells. A hit costs two map
// operations and an epoch comparison — no tree traversal, no locks
// beyond the cache's own RWMutex, and zero allocations. Invalidation is
// cell-granular: a cached answer dies only when a shard its time-window
// range (or the spatial fallback set) resolves to has actually changed,
// so saturating ingest into other windows leaves hot entries alive.
//
// Admission is gated by the hot-cell sketch: a query box's center cell
// (0.01° grid, as in the PR 7 hotspot sketches) must have missed
// MinCellHits times before its results are stored, which keeps one-off
// scans from churning the cache. Eviction is FIFO over a ring of keys.
//
// A hit hands out references into the cached slice, which is never
// rewritten, so they obey the Visit contract like references into a
// snapshot. The cache keeps copies rather than snapshot references so a
// long-lived cached answer does not pin the leaves of a superseded tree.
type ReadCache struct {
	inner ServerIndex
	snap  snapshotSearcher
	opts  ReadCacheOptions
	hot   *obs.TopK[readCell]

	mu   sync.RWMutex
	m    map[readKey]*cacheEntry
	ring []readKey // FIFO of inserted keys; next points at the oldest
	next int

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

// NewReadCache wraps inner with a read cache. It fails if inner does not
// expose snapshot reads (e.g. the Linear baseline), in which case the
// caller should keep using inner directly.
func NewReadCache(inner ServerIndex, opts ReadCacheOptions) (*ReadCache, error) {
	ss, ok := inner.(snapshotSearcher)
	if !ok {
		return nil, fmt.Errorf("index: %T does not support snapshot reads; cannot cache", inner)
	}
	o := opts.withDefaults()
	c := &ReadCache{
		inner: inner,
		snap:  ss,
		opts:  o,
		hot:   obs.NewTopK[readCell](o.SketchLen),
		m:     make(map[readKey]*cacheEntry, o.Capacity),
		ring:  make([]readKey, o.Capacity),
	}
	c.RegisterMetrics()
	return c, nil
}

// Unwrap returns the wrapped index — for callers that need the concrete
// kind behind the cache (metrics teardown, health checks).
func (c *ReadCache) Unwrap() ServerIndex { return c.inner }

// RegisterMetrics exposes the cache's counters on the configured
// registry. Called by NewReadCache; no-op without a registry.
func (c *ReadCache) RegisterMetrics() {
	reg := c.opts.Registry
	if reg == nil {
		return
	}
	reg.CounterFunc("fovr_readcache_hits_total", func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("fovr_readcache_misses_total", func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("fovr_readcache_invalidations_total", func() float64 { return float64(c.invalidations.Load()) })
	reg.CounterFunc("fovr_readcache_evictions_total", func() float64 { return float64(c.evictions.Load()) })
	reg.GaugeFunc("fovr_readcache_entries", func() float64 {
		c.mu.RLock()
		n := len(c.m)
		c.mu.RUnlock()
		return float64(n)
	})
}

// UnregisterMetrics removes the metrics RegisterMetrics installed.
func (c *ReadCache) UnregisterMetrics() {
	reg := c.opts.Registry
	if reg == nil {
		return
	}
	for _, name := range []string{
		"fovr_readcache_hits_total",
		"fovr_readcache_misses_total",
		"fovr_readcache_invalidations_total",
		"fovr_readcache_evictions_total",
		"fovr_readcache_entries",
	} {
		reg.Unregister(name)
	}
}

// Hits, Misses, Invalidations, Evictions expose the lifetime counters
// (tests and benchmarks read them directly; /metrics serves the same
// numbers).
func (c *ReadCache) Hits() int64          { return c.hits.Load() }
func (c *ReadCache) Misses() int64        { return c.misses.Load() }
func (c *ReadCache) Invalidations() int64 { return c.invalidations.Load() }
func (c *ReadCache) Evictions() int64     { return c.evictions.Load() }

// Entries returns the wrapped index's entries (never cached: snapshot
// writing wants the freshest consistent cut).
func (c *ReadCache) Entries() []Entry { return c.inner.Entries() }

// Pass-through mutations and diagnostics. Mutations need no explicit
// invalidation: cached entries carry epoch probes that notice the
// publish on their own.
func (c *ReadCache) Insert(e Entry) error              { return c.inner.Insert(e) }
func (c *ReadCache) InsertBatch(entries []Entry) error { return c.inner.InsertBatch(entries) }
func (c *ReadCache) Remove(id uint64) bool             { return c.inner.Remove(id) }
func (c *ReadCache) Len() int                          { return c.inner.Len() }
func (c *ReadCache) Height() int                       { return c.inner.Height() }
func (c *ReadCache) NodeCount() int                    { return c.inner.NodeCount() }
func (c *ReadCache) TreeStats() rtree.Stats            { return c.inner.TreeStats() }

// ReadEpoch exposes the wrapped index's reader-visible epoch.
func (c *ReadCache) ReadEpoch() uint64 { return c.snap.ReadEpoch() }

// Nearest passes through: nearest-neighbour results depend on k and the
// distance bound, which makes them poor cache keys.
func (c *ReadCache) Nearest(center geo.Point, startMillis, endMillis int64, k int, maxDistanceMeters float64, keep func(*Entry) bool) []Neighbor {
	return c.inner.Nearest(center, startMillis, endMillis, k, maxDistanceMeters, keep)
}

// Search implements Index through the cache.
func (c *ReadCache) Search(r geo.Rect, startMillis, endMillis int64) []Entry {
	return searchAll(c, r, startMillis, endMillis)
}

// Visit implements Index through the cache. A hit costs no tree
// traversal (it reports zero nodes and zero entries scanned) and no
// entry copy: load the cached slice, probe validity, hand out references
// into it. A miss on an established cell fills the cache from an
// unbounded walk — the cached answer must serve any later bound — and
// any other miss is the wrapped index's own steered walk.
func (c *ReadCache) Visit(r geo.Rect, startMillis, endMillis int64, center geo.Point, visit func(*Entry) float64) (nodes, scanned int64) {
	key := readKey{rect: r, start: startMillis, end: endMillis}
	c.mu.RLock()
	ent := c.m[key]
	c.mu.RUnlock()
	if ent != nil {
		if ent.valid() {
			c.hits.Add(1)
			visitAll(ent.res, visit)
			return 0, 0
		}
		c.invalidations.Add(1)
		c.mu.Lock()
		if c.m[key] == ent { // don't clobber a concurrent refresh
			delete(c.m, key)
		}
		c.mu.Unlock()
	} else {
		c.misses.Add(1)
	}
	if !c.admit(r) {
		return c.inner.Visit(r, startMillis, endMillis, center, visit)
	}
	hits, nodes, scanned, valid := c.snap.searchForCache(r, startMillis, endMillis)
	c.store(key, &cacheEntry{res: hits, valid: valid})
	visitAll(hits, visit)
	return nodes, scanned
}

// admit offers the query's center cell to the hot-cell sketch and
// reports whether the cell is established enough to cache.
func (c *ReadCache) admit(r geo.Rect) bool {
	cell := readCell{
		lat: int32(math.Floor((r.MinLat + r.MaxLat) / 2 / c.opts.CellDegrees)),
		lng: int32(math.Floor((r.MinLng + r.MaxLng) / 2 / c.opts.CellDegrees)),
	}
	c.hot.Offer(cell, 1)
	return c.hot.Count(cell) >= c.opts.MinCellHits
}

// store inserts a computed result, evicting FIFO when full. A key
// re-added after invalidation may transiently occupy two ring slots;
// the worst case is an early eviction, never a wrong answer.
func (c *ReadCache) store(key readKey, ent *cacheEntry) {
	c.mu.Lock()
	if _, exists := c.m[key]; !exists {
		if len(c.m) >= c.opts.Capacity {
			victim := c.ring[c.next]
			if _, ok := c.m[victim]; ok {
				delete(c.m, victim)
				c.evictions.Add(1)
			}
		}
		c.ring[c.next] = key
		c.next = (c.next + 1) % len(c.ring)
	}
	c.m[key] = ent
	c.mu.Unlock()
}

// CheckInvariants validates the wrapped index, then every still-valid
// cached entry against a fresh search: a probe that says "valid" must
// mean the cached slice is exactly what the index would answer now. The
// fuzz and differential suites lean on this to catch stale-hit bugs.
func (c *ReadCache) CheckInvariants() error {
	if err := c.inner.CheckInvariants(); err != nil {
		return err
	}
	c.mu.RLock()
	snapshot := make(map[readKey]*cacheEntry, len(c.m))
	for k, v := range c.m {
		snapshot[k] = v
	}
	c.mu.RUnlock()
	for k, ent := range snapshot {
		if !ent.valid() {
			continue
		}
		fresh, _, _, _ := c.snap.searchForCache(k.rect, k.start, k.end)
		if len(fresh) != len(ent.res) {
			return fmt.Errorf("index: readcache entry %+v claims valid but holds %d entries, fresh search finds %d", k, len(ent.res), len(fresh))
		}
		for i := range fresh {
			if fresh[i].ID != ent.res[i].ID {
				return fmt.Errorf("index: readcache entry %+v diverges from fresh search at position %d (%d != %d)", k, i, ent.res[i].ID, fresh[i].ID)
			}
		}
	}
	return nil
}

var (
	_ ServerIndex = (*ReadCache)(nil)
)
