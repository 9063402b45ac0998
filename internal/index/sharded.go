package index

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/rtree"
)

// DefaultShardWindowMillis is one hour — long relative to typical
// segment durations (seconds to minutes), short enough that a day of
// data spreads over 24 shards.
const DefaultShardWindowMillis = 3_600_000

// idStripes is the number of locks striping the id → shard map. Power
// of two so the stripe index is a mask.
const idStripes = 64

// ShardedOptions tunes a Sharded index.
type ShardedOptions struct {
	// WindowMillis is the time-shard width W. Segments with duration
	// <= W are sharded by floor(StartMillis/W); longer ones fall back
	// to the spatial shards. Zero selects DefaultShardWindowMillis.
	WindowMillis int64
	// SpatialShards is the size of the spatial-hash fallback set for
	// segments longer than the window. Zero selects 8.
	SpatialShards int
	// Tree tunes each shard's R-tree.
	Tree rtree.Options
	// Registry, when non-nil, receives the index's metrics: the
	// fovr_index_shards gauge, per-shard entry/node gauges
	// (fovr_index_shard_entries{shard="t42"}), and the
	// fovr_index_fanout_shards histogram of per-query fan-out widths.
	Registry *obs.Registry
}

func (o ShardedOptions) withDefaults() (ShardedOptions, error) {
	if o.WindowMillis == 0 {
		o.WindowMillis = DefaultShardWindowMillis
	}
	if o.WindowMillis < 1 {
		return o, fmt.Errorf("index: shard window %d ms must be positive", o.WindowMillis)
	}
	if o.SpatialShards == 0 {
		o.SpatialShards = 8
	}
	if o.SpatialShards < 1 || o.SpatialShards > 1024 {
		return o, fmt.Errorf("index: spatial shard count %d out of [1, 1024]", o.SpatialShards)
	}
	return o, nil
}

// shard is one partition: a label for metrics plus its own fully
// concurrent R-tree index (per-shard lock, id map, stats).
type shard struct {
	label string // "t<window>" for time shards, "s<cell>" for spatial
	rt    *RTree
	// Identity inside the published view: time shards carry their window
	// key, spatial shards their slot (spatialIdx >= 0, key unused).
	key        int64
	spatialIdx int // -1 for time shards
}

// shardView is the epoch-pinned, immutable cut over every shard that a
// reader resolves with a single atomic load: queries walk these
// snapshots, never touching live shard locks. Writers delta-apply their
// freshly published shard snapshots under pubMu; a per-shard epoch guard
// (a newer snapshot never regresses to an older one) keeps concurrent
// publishers from losing each other's updates.
type shardView struct {
	epoch   uint64
	keys    []int64 // sorted time-window keys present in time
	time    map[int64]*rtree.Snapshot[Entry]
	spatial []*rtree.Snapshot[Entry] // slot-aligned with Sharded.spatial, never nil snaps
}

// shardDelta is one shard's new snapshot awaiting publication into the
// view.
type shardDelta struct {
	sh   *shard
	snap *rtree.Snapshot[Entry]
}

// shardRef is one id's entry in the striped id map. pending marks ids
// reserved by an in-flight InsertBatch: Remove treats them as absent
// and Insert as duplicates until the batch commits or rolls back.
type shardRef struct {
	s       *shard
	pending bool
}

type idStripe struct {
	mu   sync.Mutex
	refs map[uint64]shardRef
}

// Sharded partitions the spatio-temporal index into per-time-window
// R-tree shards so concurrent uploads stop serializing on one global
// tree lock.
//
// The paper's index (Section V-A) stores each representative FoV as a
// degenerate 3-D rectangle — zero spatial extent, a short segment along
// the time axis. That shape makes segment start time a natural
// partition key: a segment no longer than the shard window W lands
// entirely within two adjacent windows, so a query over [t_s, t_e]
// only ever needs the shards for windows floor(t_s/W)-1 .. floor(t_e/W).
// Segments longer than the window (clock glitches, pathological inputs,
// deliberately long captures) would break that bound, so they fall back
// to a small fixed set of spatial-hash shards that every query also
// visits.
//
// Writes lock only the owning shard; InsertBatch groups a whole upload
// by shard and takes each shard lock once. Queries compute the
// overlapping shard set and walk it in deterministic shard order on the
// calling goroutine, the ranker's distance bound carried from shard to
// shard. Result sets are identical to the single-tree index; rank order
// out of the query pipeline is byte-identical because the ranker's sort
// key (distance, id) does not depend on index traversal order.
//
// Construct with NewSharded. Safe for concurrent use.
type Sharded struct {
	opts   ShardedOptions
	window int64

	mu         sync.RWMutex
	timeShards map[int64]*shard

	spatial []*shard // fixed fallback set, created up front

	stripes [idStripes]idStripe
	count   atomic.Int64

	metered atomic.Bool                   // metrics currently registered
	fanout  atomic.Pointer[obs.Histogram] // per-query fan-out width

	// view is the reader-facing consistent cut (see shardView). pubMu
	// serializes view replacement; it nests inside stripe locks and never
	// acquires any other lock.
	pubMu sync.Mutex
	view  atomic.Pointer[shardView]

	// Lock-wait accounting classes (nil without a registry): every shard
	// tree mutex shares shardLocks ("index.shard"), every id-map stripe
	// shares stripeLocks ("index.idmap"). Class-level aggregation keeps
	// metric cardinality fixed as time shards come and go.
	shardLocks  *obs.LockClass
	stripeLocks *obs.LockClass
}

// NewSharded returns an empty sharded index.
func NewSharded(opts ShardedOptions) (*Sharded, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	x := &Sharded{
		opts:       o,
		window:     o.WindowMillis,
		timeShards: make(map[int64]*shard),
		spatial:    make([]*shard, o.SpatialShards),
	}
	if o.Registry != nil {
		x.shardLocks = o.Registry.LockClass("index.shard")
		x.stripeLocks = o.Registry.LockClass("index.idmap")
	}
	for i := range x.stripes {
		x.stripes[i].refs = make(map[uint64]shardRef)
	}
	for i := range x.spatial {
		rt, err := NewRTree(o.Tree)
		if err != nil {
			return nil, err
		}
		rt.SetLockClass(x.shardLocks)
		x.spatial[i] = &shard{label: fmt.Sprintf("s%d", i), rt: rt, spatialIdx: i}
	}
	// Initial view: every spatial shard's (empty) snapshot, no time shards.
	spatial := make([]*rtree.Snapshot[Entry], len(x.spatial))
	for i, sp := range x.spatial {
		spatial[i] = sp.rt.tree.Snapshot()
	}
	x.view.Store(&shardView{
		epoch:   1,
		time:    make(map[int64]*rtree.Snapshot[Entry]),
		spatial: spatial,
	})
	x.RegisterMetrics()
	return x, nil
}

// BulkLoadSharded builds a sharded index from a complete entry set —
// the snapshot-restore path. Entries are grouped by shard and each
// shard's tree is loaded with one batch.
func BulkLoadSharded(opts ShardedOptions, entries []Entry) (*Sharded, error) {
	x, err := NewSharded(opts)
	if err != nil {
		return nil, err
	}
	if err := x.InsertBatch(entries); err != nil {
		return nil, err
	}
	return x, nil
}

// LoadWindowShard bulk-loads one closed time window's entries as a
// single shard — the boot path for segment-backed windows. The store
// hands over a sealed segment's decoded entries and the shard's R-tree
// is bulk-built in one pass instead of insert-at-a-time, then
// published into the COW view like any other shard update, so the
// lock-free read path is unchanged. Every entry must start within
// window key and be no longer than the shard window, and the window
// must not exist yet; use InsertBatch for anything else.
func (x *Sharded) LoadWindowShard(key int64, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	for _, e := range entries {
		if e.Rep.EndMillis-e.Rep.StartMillis > x.window {
			return fmt.Errorf("index: entry %d is longer than the shard window, cannot window-load", e.ID)
		}
		if got := floorDiv(e.Rep.StartMillis, x.window); got != key {
			return fmt.Errorf("index: entry %d starts in window %d, not %d", e.ID, got, key)
		}
	}
	rt, err := BulkLoadRTree(x.opts.Tree, entries) // validates, rejects in-batch duplicates
	if err != nil {
		return err
	}
	rt.SetLockClass(x.shardLocks)
	sh := &shard{label: fmt.Sprintf("t%d", key), rt: rt, key: key, spatialIdx: -1}
	x.mu.Lock()
	if x.timeShards[key] != nil {
		x.mu.Unlock()
		return fmt.Errorf("index: window shard %d already exists", key)
	}
	x.timeShards[key] = sh
	x.mu.Unlock()
	for i, e := range entries {
		st := x.stripe(e.ID)
		lt := x.stripeLocks.Start()
		st.mu.Lock()
		lt.Acquired()
		_, dup := st.refs[e.ID]
		if !dup {
			st.refs[e.ID] = shardRef{s: sh}
		}
		st.mu.Unlock()
		lt.Released()
		if dup {
			// Already present in another shard: unwind completely.
			x.unregister(entries[:i])
			x.mu.Lock()
			delete(x.timeShards, key)
			x.mu.Unlock()
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
	}
	x.count.Add(int64(len(entries)))
	x.registerShardMetrics(sh)
	x.publishView(shardDelta{sh: sh, snap: sh.rt.tree.Snapshot()})
	return nil
}

// RegisterMetrics (re-)registers the index's metrics with the
// configured registry: the fovr_index_shards gauge, the per-shard
// entry/node gauges, and the fan-out width histogram. NewSharded calls
// it; a server that unregistered a replaced index's metrics and then
// failed to build its successor calls it again to restore them. No-op
// without a registry.
func (x *Sharded) RegisterMetrics() {
	reg := x.opts.Registry
	if reg == nil {
		return
	}
	x.metered.Store(true)
	reg.GaugeFunc("fovr_index_shards", func() float64 { return float64(x.NumShards()) })
	x.fanout.Store(reg.HistogramBuckets("fovr_index_fanout_shards",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}))
	for _, sh := range x.allShards() {
		x.registerShardMetrics(sh)
	}
}

// UnregisterMetrics removes every metric RegisterMetrics installed —
// called when a server replaces this index, so /metrics stops exposing
// shards that no longer exist.
func (x *Sharded) UnregisterMetrics() {
	reg := x.opts.Registry
	if reg == nil {
		return
	}
	x.metered.Store(false)
	reg.Unregister("fovr_index_shards")
	reg.Unregister("fovr_index_fanout_shards")
	for _, sh := range x.allShards() {
		reg.Unregister(fmt.Sprintf("fovr_index_shard_entries{shard=%q}", sh.label))
		reg.Unregister(fmt.Sprintf("fovr_index_shard_nodes{shard=%q}", sh.label))
	}
}

// registerShardMetrics exposes a shard's live entry and node counts.
// Called outside x.mu: the registry is an independent lock domain.
func (x *Sharded) registerShardMetrics(sh *shard) {
	reg := x.opts.Registry
	if reg == nil || !x.metered.Load() {
		return
	}
	rt := sh.rt
	reg.GaugeFunc(fmt.Sprintf("fovr_index_shard_entries{shard=%q}", sh.label),
		func() float64 { return float64(rt.Len()) })
	reg.GaugeFunc(fmt.Sprintf("fovr_index_shard_nodes{shard=%q}", sh.label),
		func() float64 { return float64(rt.NodeCount()) })
}

// WindowMillis returns the configured time-shard width.
func (x *Sharded) WindowMillis() int64 { return x.window }

// floorDiv is floored (not truncated) integer division, so negative
// times (pre-epoch captures) map to the correct window.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// spatialCell hashes a position into the fallback shard set (FNV-1a
// over the coordinate bit patterns).
func spatialCell(p geo.Point, n int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [2]uint64{math.Float64bits(p.Lat), math.Float64bits(p.Lng)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return int(h % uint64(n))
}

// stripe returns the id's lock stripe.
func (x *Sharded) stripe(id uint64) *idStripe {
	return &x.stripes[id&(idStripes-1)]
}

// shardFor returns (creating if needed) the shard that owns the entry.
func (x *Sharded) shardFor(e Entry) (*shard, error) {
	if e.Rep.EndMillis-e.Rep.StartMillis > x.window {
		return x.spatial[spatialCell(e.Rep.FoV.P, len(x.spatial))], nil
	}
	key := floorDiv(e.Rep.StartMillis, x.window)
	x.mu.RLock()
	sh := x.timeShards[key]
	x.mu.RUnlock()
	if sh != nil {
		return sh, nil
	}
	rt, err := NewRTree(x.opts.Tree)
	if err != nil {
		return nil, err
	}
	rt.SetLockClass(x.shardLocks)
	x.mu.Lock()
	if existing := x.timeShards[key]; existing != nil {
		x.mu.Unlock()
		return existing, nil
	}
	sh = &shard{label: fmt.Sprintf("t%d", key), rt: rt, key: key, spatialIdx: -1}
	x.timeShards[key] = sh
	x.mu.Unlock()
	// Registered outside x.mu; exactly one goroutine creates each shard.
	x.registerShardMetrics(sh)
	return sh, nil
}

// Insert implements Index. Only the id stripe and the owning shard are
// locked; inserts into different shards proceed in parallel.
func (x *Sharded) Insert(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	sh, err := x.shardFor(e)
	if err != nil {
		return err
	}
	st := x.stripe(e.ID)
	lt := x.stripeLocks.Start()
	st.mu.Lock()
	lt.Acquired()
	delta, err := x.insertStriped(st, sh, e)
	st.mu.Unlock()
	lt.Released()
	if err == nil {
		x.publishView(delta)
	}
	return err
}

// insertStriped is Insert's critical section: runs under st.mu. On
// success it returns the shard's freshly published snapshot for the
// caller to fold into the view (outside the stripe lock; the per-shard
// epoch guard makes late publication safe).
func (x *Sharded) insertStriped(st *idStripe, sh *shard, e Entry) (shardDelta, error) {
	if _, dup := st.refs[e.ID]; dup {
		return shardDelta{}, fmt.Errorf("index: duplicate id %d", e.ID)
	}
	snap, err := sh.rt.insertPub(e)
	if err != nil {
		return shardDelta{}, err
	}
	st.refs[e.ID] = shardRef{s: sh}
	x.count.Add(1)
	return shardDelta{sh: sh, snap: snap}, nil
}

// InsertBatch adds a whole upload all-or-nothing, taking each owning
// shard's write lock exactly once. Ids are first reserved as pending in
// the striped id map (so concurrent inserts of the same id fail as
// duplicates and concurrent removes see "not present"), then grouped by
// shard and inserted group-at-a-time, then committed.
func (x *Sharded) InsertBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	shards := make([]*shard, len(entries))
	for i, e := range entries {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("index: batch entry %d: %w", i, err)
		}
		sh, err := x.shardFor(e)
		if err != nil {
			return err
		}
		shards[i] = sh
	}

	// Phase 1: reserve every id.
	for i, e := range entries {
		st := x.stripe(e.ID)
		lt := x.stripeLocks.Start()
		st.mu.Lock()
		lt.Acquired()
		_, dup := st.refs[e.ID]
		if !dup {
			st.refs[e.ID] = shardRef{s: shards[i], pending: true}
		}
		st.mu.Unlock()
		lt.Released()
		if dup {
			x.unregister(entries[:i])
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
	}

	// Phase 2: group by shard, one lock acquisition per shard.
	order := make([]*shard, 0, 8) // first-appearance order, deterministic
	groups := make(map[*shard][]Entry, 8)
	for i, e := range entries {
		sh := shards[i]
		if _, seen := groups[sh]; !seen {
			order = append(order, sh)
		}
		groups[sh] = append(groups[sh], e)
	}
	deltas := make([]shardDelta, 0, len(order))
	for gi, sh := range order {
		snap, err := sh.rt.insertBatchPub(groups[sh])
		if err != nil {
			// Roll back the shards already written, then release every
			// reservation: the batch is all-or-nothing. The rollback
			// removals publish at shard level only; none of the batch's
			// snapshots reach the view, so readers never saw any of it.
			for _, done := range order[:gi] {
				for _, e := range groups[done] {
					done.rt.Remove(e.ID)
				}
			}
			x.unregister(entries)
			return err
		}
		deltas = append(deltas, shardDelta{sh: sh, snap: snap})
	}

	// Phase 3: commit the reservations, then publish every touched
	// shard's snapshot as one view replacement — the whole batch becomes
	// visible to readers atomically, even when it spans shards.
	for i, e := range entries {
		st := x.stripe(e.ID)
		lt := x.stripeLocks.Start()
		st.mu.Lock()
		lt.Acquired()
		st.refs[e.ID] = shardRef{s: shards[i]}
		st.mu.Unlock()
		lt.Released()
	}
	x.count.Add(int64(len(entries)))
	x.publishView(deltas...)
	return nil
}

// unregister drops the id-map reservations for entries (rollback path).
func (x *Sharded) unregister(entries []Entry) {
	for _, e := range entries {
		st := x.stripe(e.ID)
		lt := x.stripeLocks.Start()
		st.mu.Lock()
		lt.Acquired()
		delete(st.refs, e.ID)
		st.mu.Unlock()
		lt.Released()
	}
}

// Remove implements Index.
func (x *Sharded) Remove(id uint64) bool {
	st := x.stripe(id)
	lt := x.stripeLocks.Start()
	st.mu.Lock()
	lt.Acquired()
	delta, ok := x.removeStriped(st, id)
	st.mu.Unlock()
	lt.Released()
	if ok {
		x.publishView(delta)
	}
	return ok
}

// removeStriped is Remove's critical section: runs under st.mu.
func (x *Sharded) removeStriped(st *idStripe, id uint64) (shardDelta, bool) {
	ref, ok := st.refs[id]
	if !ok || ref.pending {
		return shardDelta{}, false
	}
	snap, removed := ref.s.rt.removePub(id)
	if !removed {
		panic(fmt.Sprintf("index: id %d tracked in shard map but not in shard %s", id, ref.s.label))
	}
	delete(st.refs, id)
	x.count.Add(-1)
	return shardDelta{sh: ref.s, snap: snap}, true
}

// Len implements Index.
func (x *Sharded) Len() int { return int(x.count.Load()) }

// NumShards returns the number of live shards: every instantiated time
// shard plus each spatial fallback shard currently holding entries.
func (x *Sharded) NumShards() int {
	x.mu.RLock()
	n := len(x.timeShards)
	x.mu.RUnlock()
	for _, sp := range x.spatial {
		if sp.rt.Len() > 0 {
			n++
		}
	}
	return n
}

// ShardSizes returns the entry count of every live shard keyed by
// shard label. Health checks use the distribution to detect imbalance
// (one shard absorbing most of the index defeats the sharding).
func (x *Sharded) ShardSizes() map[string]int {
	x.mu.RLock()
	shards := make([]*shard, 0, len(x.timeShards))
	for _, sh := range x.timeShards {
		shards = append(shards, sh)
	}
	x.mu.RUnlock()
	out := make(map[string]int, len(shards)+len(x.spatial))
	for _, sh := range shards {
		out[sh.label] = sh.rt.Len()
	}
	for _, sp := range x.spatial {
		if n := sp.rt.Len(); n > 0 {
			out[sp.label] = n
		}
	}
	return out
}

// publishView folds freshly published shard snapshots into a new view
// and makes it current. Serialized on pubMu; the per-shard epoch guard
// drops any delta older than what the view already holds, so two
// publishers racing on the same shard cannot regress it.
func (x *Sharded) publishView(deltas ...shardDelta) {
	x.pubMu.Lock()
	defer x.pubMu.Unlock()
	old := x.view.Load()
	nv := &shardView{
		epoch:   old.epoch + 1,
		keys:    old.keys,
		time:    old.time,
		spatial: old.spatial,
	}
	changed, copiedTime, copiedSpatial := false, false, false
	for _, d := range deltas {
		if d.snap == nil {
			continue
		}
		if d.sh.spatialIdx >= 0 {
			if old.spatial[d.sh.spatialIdx].Epoch() >= d.snap.Epoch() {
				continue
			}
			if !copiedSpatial {
				nv.spatial = append([]*rtree.Snapshot[Entry](nil), nv.spatial...)
				copiedSpatial = true
			}
			nv.spatial[d.sh.spatialIdx] = d.snap
			changed = true
			continue
		}
		cur, ok := nv.time[d.sh.key]
		if ok && cur.Epoch() >= d.snap.Epoch() {
			continue
		}
		if !copiedTime {
			m := make(map[int64]*rtree.Snapshot[Entry], len(nv.time)+1)
			for k, v := range nv.time {
				m[k] = v
			}
			nv.time = m
			copiedTime = true
		}
		nv.time[d.sh.key] = d.snap
		if !ok {
			pos := sort.Search(len(nv.keys), func(i int) bool { return nv.keys[i] >= d.sh.key })
			keys := make([]int64, 0, len(nv.keys)+1)
			keys = append(keys, nv.keys[:pos]...)
			keys = append(keys, d.sh.key)
			keys = append(keys, nv.keys[pos:]...)
			nv.keys = keys
		}
		changed = true
	}
	if changed {
		x.view.Store(nv)
	}
}

// ReadEpoch returns the epoch of the view readers currently see; it
// advances with every effective publication.
func (x *Sharded) ReadEpoch() uint64 { return x.view.Load().epoch }

// windowRange returns the inclusive time-window key range a query over
// [startMillis, endMillis] must visit. A time shard holds segments
// starting within its window with duration <= window, so only windows
// floor(start/W)-1 .. floor(end/W) qualify.
func (x *Sharded) windowRange(startMillis, endMillis int64) (lo, hi int64) {
	return WindowKeyRange(startMillis, endMillis, x.window)
}

// viewShardsFor returns, in deterministic order (ascending window, then
// the non-empty spatial fallbacks), every snapshot in the view that
// could hold an entry whose segment intersects [startMillis, endMillis].
func (x *Sharded) viewShardsFor(v *shardView, startMillis, endMillis int64) []*rtree.Snapshot[Entry] {
	lo, hi := x.windowRange(startMillis, endMillis)
	from := sort.Search(len(v.keys), func(i int) bool { return v.keys[i] >= lo })
	to := from
	for to < len(v.keys) && v.keys[to] <= hi {
		to++
	}
	out := make([]*rtree.Snapshot[Entry], 0, (to-from)+len(v.spatial))
	for _, k := range v.keys[from:to] {
		out = append(out, v.time[k])
	}
	for _, sp := range v.spatial {
		if sp.Len() > 0 {
			out = append(out, sp)
		}
	}
	return out
}

// Visit implements Index: the query resolves every overlapping shard
// snapshot from ONE atomic view load (a consistent, epoch-pinned cut —
// no shard lock is touched) and walks them in shard order on the calling
// goroutine, carrying the bound from each shard into the next, so a
// shard the earlier ones have already out-ranked costs one node visit.
// The traversal cost is summed over the shards.
func (x *Sharded) Visit(r geo.Rect, startMillis, endMillis int64, center geo.Point, visit func(*Entry) float64) (nodes, scanned int64) {
	return x.walkView(x.view.Load(), r, startMillis, endMillis, nearFor(r, center), inSnapshot(visit))
}

// Search implements Index.
func (x *Sharded) Search(r geo.Rect, startMillis, endMillis int64) []Entry {
	return searchAll(x, r, startMillis, endMillis)
}

// walkView runs one box query against a pinned view.
func (x *Sharded) walkView(v *shardView, r geo.Rect, startMillis, endMillis int64, near rtree.Near, fn func(*rtree.Rect, *Entry) float64) (nodes, scanned int64) {
	shards := x.viewShardsFor(v, startMillis, endMillis)
	if h := x.fanout.Load(); h != nil {
		h.Observe(float64(len(shards)))
	}
	return walkSnapshots(shards, queryRect(r, startMillis, endMillis), near, math.Inf(1), fn)
}

// searchForCache is Search against the current view plus a validity
// probe for the read cache: it stays true while every shard the query's
// window range resolves to (plus the spatial set) is unchanged —
// cell-granular invalidation, so ingest into unrelated windows does not
// evict cached answers.
func (x *Sharded) searchForCache(r geo.Rect, startMillis, endMillis int64) (hits []Entry, nodes, scanned int64, valid func() bool) {
	v := x.view.Load()
	var refs []*Entry
	nodes, scanned = x.walkView(v, r, startMillis, endMillis, rtree.Near{}, func(_ *rtree.Rect, e *Entry) float64 {
		refs = append(refs, e)
		return math.Inf(1)
	})
	hits = entriesOf(refs)
	lo, hi := x.windowRange(startMillis, endMillis)
	valid = func() bool {
		cur := x.view.Load()
		if cur == v {
			return true
		}
		return viewRangeUnchanged(v, cur, lo, hi)
	}
	return hits, nodes, scanned, valid
}

// viewRangeUnchanged reports whether two views would answer a query over
// time-window keys [lo, hi] identically: the same time shards at the
// same snapshot epochs, and every spatial slot (all of which any query
// visits) unchanged. Per-shard epochs are strictly monotonic, so epoch
// equality means the snapshot is the same.
func viewRangeUnchanged(a, b *shardView, lo, hi int64) bool {
	for i := range a.spatial {
		if a.spatial[i].Epoch() != b.spatial[i].Epoch() {
			return false
		}
	}
	ai := sort.Search(len(a.keys), func(i int) bool { return a.keys[i] >= lo })
	bi := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= lo })
	for {
		aOK := ai < len(a.keys) && a.keys[ai] <= hi
		bOK := bi < len(b.keys) && b.keys[bi] <= hi
		if !aOK || !bOK {
			return aOK == bOK // a key appearing or vanishing changes answers
		}
		if a.keys[ai] != b.keys[bi] {
			return false
		}
		if a.time[a.keys[ai]].Epoch() != b.time[b.keys[bi]].Epoch() {
			return false
		}
		ai++
		bi++
	}
}

// Nearest implements the k-nearest search of the single-tree index over
// the pinned view: one walk through the overlapping shards, the k best
// so far bounding what the later shards still have to show.
func (x *Sharded) Nearest(center geo.Point, startMillis, endMillis int64, k int, maxDistanceMeters float64, keep func(*Entry) bool) []Neighbor {
	return nearestIn(x.viewShardsFor(x.view.Load(), startMillis, endMillis), center, startMillis, endMillis, k, maxDistanceMeters, keep)
}

// allShards snapshots every live shard in deterministic order.
func (x *Sharded) allShards() []*shard {
	x.mu.RLock()
	keys := make([]int64, 0, len(x.timeShards))
	for k := range x.timeShards {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]*shard, 0, len(keys)+len(x.spatial))
	for _, k := range keys {
		out = append(out, x.timeShards[k])
	}
	x.mu.RUnlock()
	out = append(out, x.spatial...)
	return out
}

// viewShardsAll returns every shard in the view (time shards in key
// order, then all spatial slots).
func viewShardsAll(v *shardView) []*rtree.Snapshot[Entry] {
	out := make([]*rtree.Snapshot[Entry], 0, len(v.keys)+len(v.spatial))
	for _, k := range v.keys {
		out = append(out, v.time[k])
	}
	out = append(out, v.spatial...)
	return out
}

// Entries returns a copy of every stored entry (snapshot input), shard
// by shard in deterministic shard order. It reads the published view,
// so the copy is a consistent cut even under concurrent ingest.
func (x *Sharded) Entries() []Entry {
	var out []Entry
	for _, vs := range viewShardsAll(x.view.Load()) {
		vs.Scan(func(_ rtree.Rect, e Entry) bool {
			out = append(out, e)
			return true
		})
	}
	return out
}

// Height returns the tallest shard tree in the published view — the
// worst-case traversal depth a query can meet.
func (x *Sharded) Height() int {
	h := 0
	for _, vs := range viewShardsAll(x.view.Load()) {
		if vs.Len() == 0 {
			continue
		}
		if sht := vs.Height(); sht > h {
			h = sht
		}
	}
	return h
}

// NodeCount sums the published view's node counts.
func (x *Sharded) NodeCount() int {
	n := 0
	for _, vs := range viewShardsAll(x.view.Load()) {
		n += vs.NodeCount()
	}
	return n
}

// TreeStats sums the shard trees' lifetime operation counters.
func (x *Sharded) TreeStats() rtree.Stats {
	var total rtree.Stats
	for _, sh := range x.allShards() {
		st := sh.rt.TreeStats()
		total.Searches += st.Searches
		total.NodeVisits += st.NodeVisits
		total.LeafEntriesScanned += st.LeafEntriesScanned
		total.Inserts += st.Inserts
		total.Deletes += st.Deletes
		total.Reinserts += st.Reinserts
		total.Splits += st.Splits
	}
	return total
}

// CheckInvariants validates every shard tree plus the cross-shard
// bookkeeping (tests only; assumes no in-flight batches).
func (x *Sharded) CheckInvariants() error {
	total := 0
	for _, sh := range x.allShards() {
		if err := sh.rt.CheckInvariants(); err != nil {
			return fmt.Errorf("index: shard %s: %w", sh.label, err)
		}
		total += sh.rt.Len()
	}
	refs := 0
	for i := range x.stripes {
		st := &x.stripes[i]
		st.mu.Lock()
		for id, ref := range st.refs {
			if ref.pending {
				st.mu.Unlock()
				return fmt.Errorf("index: id %d still pending at rest", id)
			}
			refs++
		}
		st.mu.Unlock()
	}
	if c := int(x.count.Load()); total != c || refs != c {
		return fmt.Errorf("index: shards hold %d entries, id map %d, count %d", total, refs, c)
	}
	// Time shards may only hold segments no longer than the window.
	x.mu.RLock()
	for key, sh := range x.timeShards {
		for _, e := range sh.rt.Entries() {
			if e.Rep.EndMillis-e.Rep.StartMillis > x.window {
				x.mu.RUnlock()
				return fmt.Errorf("index: over-long segment %d in time shard %d", e.ID, key)
			}
			if floorDiv(e.Rep.StartMillis, x.window) != key {
				x.mu.RUnlock()
				return fmt.Errorf("index: entry %d misfiled in time shard %d", e.ID, key)
			}
		}
	}
	x.mu.RUnlock()
	return x.checkView()
}

// checkView validates the published view against the live shards: at
// rest every mutation has been published, so each view snapshot must
// match its shard's current state (same size, epoch no newer than the
// shard's), the key list must mirror the map, and any live time shard
// absent from the view (created by a rolled-back batch) must be empty.
func (x *Sharded) checkView() error {
	v := x.view.Load()
	if v == nil {
		return fmt.Errorf("index: no published view")
	}
	if len(v.keys) != len(v.time) {
		return fmt.Errorf("index: view has %d keys but %d time shards", len(v.keys), len(v.time))
	}
	total := 0
	for i, k := range v.keys {
		if i > 0 && v.keys[i-1] >= k {
			return fmt.Errorf("index: view keys out of order at %d", i)
		}
		vs, ok := v.time[k]
		if !ok {
			return fmt.Errorf("index: view key %d missing from time map", k)
		}
		total += vs.Len()
	}
	for i, vs := range v.spatial {
		if vs == nil {
			return fmt.Errorf("index: view spatial shard s%d has nil snapshot", i)
		}
		total += vs.Len()
	}
	if c := int(x.count.Load()); total != c {
		return fmt.Errorf("index: view holds %d entries, count says %d", total, c)
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	for k, sh := range x.timeShards {
		vs, ok := v.time[k]
		if !ok {
			if n := sh.rt.Len(); n != 0 {
				return fmt.Errorf("index: time shard %d holds %d entries but is not in the view", k, n)
			}
			continue
		}
		if vs.Len() != sh.rt.Len() {
			return fmt.Errorf("index: view shard t%d has %d entries, live shard has %d (unpublished mutation)", k, vs.Len(), sh.rt.Len())
		}
		if cur := sh.rt.ReadEpoch(); vs.Epoch() > cur {
			return fmt.Errorf("index: view shard t%d epoch %d ahead of live epoch %d", k, vs.Epoch(), cur)
		}
	}
	for i, sp := range x.spatial {
		vs := v.spatial[i]
		if vs.Len() != sp.rt.Len() {
			return fmt.Errorf("index: view spatial shard %s has %d entries, live shard has %d", sp.label, vs.Len(), sp.rt.Len())
		}
		if cur := sp.rt.ReadEpoch(); vs.Epoch() > cur {
			return fmt.Errorf("index: view spatial shard %s epoch %d ahead of live epoch %d", sp.label, vs.Epoch(), cur)
		}
	}
	return nil
}

var _ ServerIndex = (*Sharded)(nil)
