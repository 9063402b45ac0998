// Package index maintains the cloud server's dynamic spatio-temporal
// index over representative FoVs (Section V-A).
//
// Each representative FoV f_r = (p, theta) with segment interval
// [t_s, t_e] is stored as the degenerate 3-D rectangle
//
//	min[] = [p.Lng, p.Lat, t_s],  max[] = [p.Lng, p.Lat, t_e]
//
// — a vertical segment in (longitude, latitude, time) space — inside the
// R-tree of package rtree. A query range plus time interval becomes a 3-D
// box and the index returns every representative whose segment intersects
// it.
//
// Three implementations share the Index interface: RTree (the paper's
// design, and the one index the server runs), Linear (the naive scan
// baseline of Fig. 6(c) and the test oracle) and Grid (the uniform-grid
// ablation). All are safe for concurrent use by many uploaders and
// queriers.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/minheap"
	"fovr/internal/rtree"
	"fovr/internal/segment"
)

// Entry is one indexed representative FoV along with the identity a
// retrieval result needs: which provider owns the underlying segment and
// a server-assigned id to fetch it by.
type Entry struct {
	// ID is the server-assigned unique id of the video segment.
	ID uint64 `json:"id"`
	// Provider identifies the contributing client.
	Provider string `json:"provider"`
	// Rep is the uploaded representative FoV with its time interval.
	Rep segment.Representative `json:"rep"`
	// Camera optionally records the contributing device's viewing
	// geometry (devices differ in viewing angle and usable radius). The
	// zero value means "unknown — use the deployment default"; the
	// ranker substitutes its configured camera then.
	Camera fov.Camera `json:"camera,omitempty"`
}

// Validate reports whether the entry can be indexed.
func (e Entry) Validate() error {
	if err := e.Rep.FoV.Validate(); err != nil {
		return err
	}
	if e.Rep.EndMillis < e.Rep.StartMillis {
		return fmt.Errorf("index: segment interval inverted [%d, %d]",
			e.Rep.StartMillis, e.Rep.EndMillis)
	}
	if e.Camera != (fov.Camera{}) {
		if err := e.Camera.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// EffectiveCamera returns the entry's own camera, or fallback when the
// entry carries none. Pointer receiver: the filter calls it once per
// candidate on a reference into the index.
func (e *Entry) EffectiveCamera(fallback fov.Camera) fov.Camera {
	if e.Camera != (fov.Camera{}) {
		return e.Camera
	}
	return fallback
}

// Index is the server-side store of representative FoVs.
type Index interface {
	// Insert adds an entry. IDs must be unique; reusing one is an error.
	Insert(Entry) error
	// Visit is the read traversal: it hands visit a reference to every
	// entry whose position lies in r and whose segment interval
	// intersects [startMillis, endMillis], and reports what the traversal
	// cost (index nodes visited, stored entries tested). visit answers
	// with a bound: "nothing farther than this many metres from center
	// (by geo.Distance) interests me any more" — +Inf for no bound. An
	// index may use the latest bound to skip entries strictly farther,
	// and to reach near entries first so the bound tightens early; it
	// never skips an entry at or inside the bound, and it may ignore the
	// bound altogether. Order is unspecified; the ranker sorts. The
	// references address memory no writer will ever touch again — a
	// published snapshot's leaves or a private copy — so they stay valid,
	// and unchanged, for as long as the caller holds them; the caller must
	// not write through them.
	Visit(r geo.Rect, startMillis, endMillis int64, center geo.Point, visit func(*Entry) float64) (nodes, scanned int64)
	// Search is the collecting, unbounded form of Visit: a fresh copy of
	// every matching entry. No request path runs it — queries and
	// /nearest walk Visit. Its callers are bench/layers.go's per-layer
	// index row, the Linear oracle behind its own Visit, and tests.
	Search(r geo.Rect, startMillis, endMillis int64) []Entry
	// Len returns the number of stored entries.
	Len() int
}

// searchAll is Search over an index's Visit: collect a reference to
// every match with no bound, then copy them out.
func searchAll(x Index, r geo.Rect, startMillis, endMillis int64) []Entry {
	var refs []*Entry
	x.Visit(r, startMillis, endMillis, r.Center(), func(e *Entry) float64 {
		refs = append(refs, e)
		return math.Inf(1)
	})
	return entriesOf(refs)
}

// entriesOf copies the referenced entries out, once, at their exact
// number (growing a slice of 80-byte entries costs more than growing
// one of references and copying at the end).
func entriesOf(refs []*Entry) []Entry {
	if len(refs) == 0 {
		return nil
	}
	out := make([]Entry, len(refs))
	for i, e := range refs {
		out[i] = *e
	}
	return out
}

// visitAll hands visit a reference to every element of hits, a slice the
// caller owns and nobody will write again, ignoring the bounds it
// answers with. The indexes that mutate their storage in place (Linear,
// Grid) answer Visit this way.
func visitAll(hits []Entry, visit func(*Entry) float64) {
	for i := range hits {
		visit(&hits[i])
	}
}

// BatchInserter is the Index extension the upload path uses: adding a
// whole upload atomically, taking each internal lock once instead of
// once per representative. An InsertBatch is all-or-nothing — on error
// no entry of the batch remains indexed.
type BatchInserter interface {
	InsertBatch(entries []Entry) error
}

// NearestSearcher answers the radius-free query form: up to k entries
// nearest to center whose interval intersects [startMillis, endMillis]
// and which pass keep, nearest first (see RTree.Nearest for the exact
// metric).
type NearestSearcher interface {
	Nearest(center geo.Point, startMillis, endMillis int64, k int, maxDistanceMeters float64, keep func(*Entry) bool) []Neighbor
}

// ServerIndex is the contract the differential suite drives RTree and
// the Linear oracle through: the core Index operations plus batch
// ingest and removal, nearest-neighbour ranking, and the diagnostics
// exposed at /metrics. The server holds an *RTree, not the interface.
type ServerIndex interface {
	Index
	BatchInserter
	NearestSearcher
	// RemoveBatch deletes the given entries, as read from this index,
	// and returns how many it removed; entries it does not hold are
	// skipped. Readers see the whole batch go at once.
	RemoveBatch(entries []Entry) int
	// Entries returns a copy of every stored entry (snapshot input).
	Entries() []Entry
	// Height is the worst-case tree depth a query can traverse.
	Height() int
	// NodeCount counts index nodes (diagnostics).
	NodeCount() int
	// TreeStats aggregates lifetime operation counters for /metrics.
	TreeStats() rtree.Stats
	// CheckInvariants validates internal structure (tests only).
	CheckInvariants() error
}

// entryRect is the tree's bounds function: an entry's index-space
// rectangle, derived from its representative whenever the tree needs
// it, so leaves store the entry and nothing else.
func entryRect(e *Entry) rtree.Rect {
	p := e.Rep.FoV.P
	return rtree.Rect{
		Min: [rtree.Dims]float64{p.Lng, p.Lat, float64(e.Rep.StartMillis)},
		Max: [rtree.Dims]float64{p.Lng, p.Lat, float64(e.Rep.EndMillis)},
	}
}

// queryRect maps a geographic box plus time interval to index space.
func queryRect(r geo.Rect, startMillis, endMillis int64) rtree.Rect {
	return rtree.Rect{
		Min: [rtree.Dims]float64{r.MinLng, r.MinLat, float64(startMillis)},
		Max: [rtree.Dims]float64{r.MaxLng, r.MaxLat, float64(endMillis)},
	}
}

// RTree is the R-tree-backed index of Section V. The zero value is not
// usable; construct with NewRTree.
//
// Writers serialize on mu and publish an immutable snapshot of the tree
// after every mutation; readers load the snapshot and traverse it with
// no locks at all, so queries never wait on ingest and never observe a
// partially applied batch. ids holds every stored id, so a duplicate is
// refused without a tree walk.
type RTree struct {
	mu   sync.Mutex // writers only; readers go through tree.Snapshot
	tree *rtree.Tree[Entry]
	ids  map[uint64]struct{}
}

// NewRTree returns an empty R-tree index.
func NewRTree() *RTree {
	return &RTree{tree: rtree.MustNew(rtree.Options{}, entryRect), ids: make(map[uint64]struct{})}
}

// BulkLoadRTree builds an R-tree index from a complete entry set using
// STR packing — the fast path for rebuilding an index from a snapshot.
func BulkLoadRTree(entries []Entry) (*RTree, error) {
	ids := make(map[uint64]struct{}, len(entries))
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		if _, dup := ids[e.ID]; dup {
			return nil, fmt.Errorf("index: duplicate id %d", e.ID)
		}
		ids[e.ID] = struct{}{}
	}
	t, err := rtree.BulkLoad(rtree.Options{}, entryRect, entries)
	if err != nil {
		return nil, err
	}
	return &RTree{tree: t, ids: ids}, nil
}

// Insert implements Index.
func (x *RTree) Insert(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.insertLocked(e); err != nil {
		return err
	}
	x.tree.Publish()
	return nil
}

func (x *RTree) insertLocked(e Entry) error {
	if _, dup := x.ids[e.ID]; dup {
		return fmt.Errorf("index: duplicate id %d", e.ID)
	}
	if err := x.tree.Insert(e); err != nil {
		return err
	}
	x.ids[e.ID] = struct{}{}
	return nil
}

// InsertBatch implements BatchInserter: the whole batch is validated,
// checked for duplicates, and inserted under a single acquisition of
// the tree lock. On any failure the already-inserted prefix is removed
// again, so the batch is all-or-nothing. The whole batch becomes
// visible to readers in one publish — a reader sees either none of the
// batch or all of it.
func (x *RTree) InsertBatch(entries []Entry) error {
	for i, e := range entries {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("index: batch entry %d: %w", i, err)
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, e := range entries {
		if err := x.insertLocked(e); err != nil {
			x.removeLocked(entries[:i])
			return err
		}
	}
	x.tree.Publish()
	return nil
}

// boundSlack shrinks the steering weights so the lower bound stays below
// geo.Distance whatever the last bits of either computation round to.
const boundSlack = 1 - 1e-9

// nearFor returns the rtree steering under which Near.MinDist2 of any
// rectangle is a lower bound, in metres squared, on the squared
// geo.Distance between center and every position inside both the
// rectangle and the query box r. geo.Displacement scales longitude by
// the cosine of the mid-latitude of the two points, so the weight uses
// the smallest cosine over the latitude band that holds the box and the
// center; it wraps longitude differences beyond 180°, so longitude
// carries no weight unless the whole box lies within 180° of the center.
func nearFor(r geo.Rect, center geo.Point) rtree.Near {
	lo := math.Max(math.Min(r.MinLat, center.Lat), -90)
	hi := math.Min(math.Max(r.MaxLat, center.Lat), 90)
	cos := math.Max(0, math.Min(math.Cos(lo*math.Pi/180), math.Cos(hi*math.Pi/180)))
	if !(center.Lng-r.MinLng < 180 && r.MaxLng-center.Lng < 180) {
		cos = 0
	}
	return rtree.Near{
		P: [rtree.Dims]float64{center.Lng, center.Lat, 0},
		W: [rtree.Dims]float64{geo.MetersPerDegree * cos * boundSlack, geo.MetersPerDegree * boundSlack, 0},
	}
}

// ReadEpoch returns the epoch of the snapshot readers currently see. It
// increases by exactly 1 per published mutation (insert, batch, remove),
// which is what the read-correctness suites pin monotonicity against.
func (x *RTree) ReadEpoch() uint64 {
	return x.tree.Snapshot().Epoch()
}

// RemoveBatch implements ServerIndex under one acquisition of the tree
// lock and with one publish. Each entry is found by its rectangle and
// id, so it must be as stored (read from this index); an entry whose id
// is not stored, or is stored under another rectangle, is skipped.
func (x *RTree) RemoveBatch(entries []Entry) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := x.removeLocked(entries)
	if n > 0 {
		x.tree.Publish()
	}
	return n
}

func (x *RTree) removeLocked(entries []Entry) int {
	n := 0
	for i := range entries {
		e := &entries[i]
		if _, ok := x.ids[e.ID]; !ok {
			continue
		}
		if x.tree.Delete(e, func(d *Entry) bool { return d.ID == e.ID }) {
			delete(x.ids, e.ID)
			n++
		}
	}
	return n
}

// Visit implements Index. It walks the published snapshot, taking no
// locks, steered by the bounds visit answers with; the references point
// into that snapshot's leaves.
func (x *RTree) Visit(r geo.Rect, startMillis, endMillis int64, center geo.Point, visit func(*Entry) float64) (nodes, scanned int64) {
	_, nodes, scanned = x.tree.Snapshot().SearchNear(queryRect(r, startMillis, endMillis), nearFor(r, center), math.Inf(1), visit)
	return nodes, scanned
}

// Search implements Index.
func (x *RTree) Search(r geo.Rect, startMillis, endMillis int64) []Entry {
	return searchAll(x, r, startMillis, endMillis)
}

// Len implements Index.
func (x *RTree) Len() int {
	return x.tree.Snapshot().Len()
}

// Height exposes the underlying tree height for diagnostics.
func (x *RTree) Height() int {
	return x.tree.Snapshot().Height()
}

// Scan calls fn with a reference to every entry of the published
// snapshot, in unspecified order, until fn returns false. Like Visit's,
// the references point into frozen leaves: they stay valid, and
// unchanged, for as long as the caller holds them, and the caller must
// not write through them.
func (x *RTree) Scan(fn func(*Entry) bool) {
	x.tree.Snapshot().Scan(fn)
}

// Entries returns a copy of every stored entry, in unspecified order —
// the input to a snapshot. The copy is taken from the published
// snapshot, so it is a consistent cut even while writers are active.
func (x *RTree) Entries() []Entry {
	out := make([]Entry, 0, x.Len())
	x.Scan(func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// NodeCount returns the published snapshot's node count (diagnostics).
func (x *RTree) NodeCount() int {
	return x.tree.Snapshot().NodeCount()
}

// TreeStats returns the underlying tree's lifetime operation counters
// (node visits, leaf scans, inserts/deletes/reinserts/splits) — the
// numbers the server exposes at /metrics. Counters reset when the tree
// is replaced (a replication bootstrap).
func (x *RTree) TreeStats() rtree.Stats {
	return x.tree.Stats()
}

// CheckInvariants validates the underlying tree structure, the id set —
// exactly the ids the leaves hold, each once — and the publication
// contract: after any public mutation returns, the published snapshot
// is exactly the current tree state (tests only; the caller must be
// quiescent).
func (x *RTree) CheckInvariants() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.tree.CheckInvariants(); err != nil {
		return err
	}
	var err error
	seen := make(map[uint64]struct{}, len(x.ids))
	x.tree.Scan(func(e *Entry) bool {
		if _, ok := x.ids[e.ID]; !ok {
			err = fmt.Errorf("index: leaf id %d missing from the id set", e.ID)
		} else if _, dup := seen[e.ID]; dup {
			err = fmt.Errorf("index: id %d stored twice", e.ID)
		}
		seen[e.ID] = struct{}{}
		return err == nil
	})
	if err != nil {
		return err
	}
	if len(seen) != len(x.ids) {
		for id := range x.ids {
			if _, ok := seen[id]; !ok {
				return fmt.Errorf("index: id %d in the id set but in no leaf", id)
			}
		}
	}
	if s := x.tree.Snapshot(); s.Len() != x.tree.Len() {
		return fmt.Errorf("index: published snapshot has %d entries, tree has %d (unpublished mutation)", s.Len(), x.tree.Len())
	}
	return nil
}

// Linear is the naive baseline: a flat slice scanned on every query
// (Fig. 6(c)'s "linear search"). Same interface, same semantics.
type Linear struct {
	mu      sync.RWMutex
	entries []Entry
	byID    map[uint64]int
}

// NewLinear returns an empty linear index.
func NewLinear() *Linear {
	return &Linear{byID: make(map[uint64]int)}
}

// Insert implements Index.
func (x *Linear) Insert(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.byID[e.ID]; dup {
		return fmt.Errorf("index: duplicate id %d", e.ID)
	}
	x.byID[e.ID] = len(x.entries)
	x.entries = append(x.entries, e)
	return nil
}

// Remove deletes the entry with the given id, reporting whether it was
// present.
func (x *Linear) Remove(id uint64) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.removeLocked(id)
}

// RemoveBatch deletes the entries with the given entries' ids under one
// lock, skipping ids it does not hold, and returns how many it removed.
func (x *Linear) RemoveBatch(entries []Entry) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := 0
	for _, e := range entries {
		if x.removeLocked(e.ID) {
			n++
		}
	}
	return n
}

func (x *Linear) removeLocked(id uint64) bool {
	i, ok := x.byID[id]
	if !ok {
		return false
	}
	last := len(x.entries) - 1
	x.entries[i] = x.entries[last]
	x.byID[x.entries[i].ID] = i
	x.entries = x.entries[:last]
	delete(x.byID, id)
	return true
}

// Search implements Index.
func (x *Linear) Search(r geo.Rect, startMillis, endMillis int64) []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []Entry
	for _, e := range x.entries {
		if e.Rep.EndMillis < startMillis || e.Rep.StartMillis > endMillis {
			continue
		}
		if !r.Contains(e.Rep.FoV.P) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Visit implements Index over a private copy of the hits, ignoring the
// bound: the oracle stays the plain collecting scan, independent of the
// steering it checks. A linear index has no tree nodes; every stored
// entry is one scanned entry, which is exactly the cost a trace should
// show for the baseline.
func (x *Linear) Visit(r geo.Rect, startMillis, endMillis int64, _ geo.Point, visit func(*Entry) float64) (nodes, scanned int64) {
	visitAll(x.Search(r, startMillis, endMillis), visit)
	return 0, int64(x.Len())
}

// InsertBatch implements BatchInserter. All-or-nothing: a duplicate or
// invalid entry anywhere in the batch leaves the index unchanged.
func (x *Linear) InsertBatch(entries []Entry) error {
	for i, e := range entries {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("index: batch entry %d: %w", i, err)
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	base := len(x.entries)
	for i, e := range entries {
		if _, dup := x.byID[e.ID]; dup {
			for _, added := range x.entries[base:] {
				delete(x.byID, added.ID)
			}
			x.entries = x.entries[:base]
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
		x.byID[e.ID] = base + i
		x.entries = append(x.entries, e)
	}
	return nil
}

// Len implements Index.
func (x *Linear) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.entries)
}

// Entries returns a copy of every stored entry, in unspecified order.
func (x *Linear) Entries() []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]Entry, len(x.entries))
	copy(out, x.entries)
	return out
}

// Neighbor is a nearest-entry result with its geographic distance.
type Neighbor struct {
	Entry          Entry
	DistanceMeters float64
}

// nearestParams maps a geographic nearest-neighbour request onto index
// space: the query point, the per-dimension weights (longitude scaled
// by cos(latitude), time excluded from the metric), and the squared
// distance bound in weighted degrees. Shared by every implementation so
// their rankings agree exactly.
func nearestParams(center geo.Point, maxDistanceMeters float64) (p, w [rtree.Dims]float64, maxDist2 float64) {
	p = [rtree.Dims]float64{center.Lng, center.Lat, 0}
	w = [rtree.Dims]float64{math.Cos(center.Lat * math.Pi / 180), 1, 0}
	if maxDistanceMeters > 0 {
		d := maxDistanceMeters / geo.MetersPerDegree
		maxDist2 = d * d
	}
	return p, w, maxDist2
}

// nearKey is one kept neighbour: the ranking key (weighted squared
// distance, id breaking ties) and the entry where the index keeps it.
type nearKey struct {
	dist2 float64
	e     *Entry
}

// nearAfter reports whether a ranks strictly after b: the heap order of
// the k best, whose top is the worst one kept.
func nearAfter(a, b *nearKey) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 > b.dist2
	}
	return a.e.ID > b.e.ID
}

// Nearest returns up to k entries closest to center whose segment
// interval intersects [startMillis, endMillis] and which pass keep
// (nil keeps everything), nearest first. Distance is geographic; the
// time dimension only filters. Longitude is scaled by cos(latitude) so
// the metric is locally correct. maxDistanceMeters > 0 bounds the search
// radius (pass the camera's radius of view: farther entries cannot cover
// the point anyway).
//
// It is the steered range walk over the published snapshot: the box of
// everything within the distance bound over the time window, subtrees
// nearest first, the k-th best distance so far as the bound — the walk
// a top-N query runs, under nearestParams' metric, so the ranking agrees
// exactly with Linear's.
func (x *RTree) Nearest(center geo.Point, startMillis, endMillis int64, k int, maxDistanceMeters float64, keep func(*Entry) bool) []Neighbor {
	if k <= 0 {
		return nil
	}
	p, w, maxDist2 := nearestParams(center, maxDistanceMeters)
	// The box holds everything within the bound under the weighted
	// metric, with room for rounding (the exact test is per entry below);
	// with no bound, or where longitude carries no weight, it is open.
	inf := math.Inf(1)
	q := rtree.Rect{
		Min: [rtree.Dims]float64{-inf, -inf, float64(startMillis)},
		Max: [rtree.Dims]float64{inf, inf, float64(endMillis)},
	}
	bound := inf
	if maxDist2 > 0 {
		bound = math.Sqrt(maxDist2)
		reach := bound * (1 + 1e-9)
		q.Min[1], q.Max[1] = p[1]-reach, p[1]+reach
		if w[0] > 0 {
			q.Min[0], q.Max[0] = p[0]-reach/w[0], p[0]+reach/w[0]
		}
	}
	near := rtree.Near{P: p, W: [rtree.Dims]float64{w[0] * boundSlack, boundSlack, 0}}
	best := make([]nearKey, 0, min(k, 64))
	offer := func(e *Entry) float64 {
		// The box compares in float64; the integer test keeps the answer
		// exact where two distinct instants round together.
		if e.Rep.EndMillis >= startMillis && e.Rep.StartMillis <= endMillis {
			dLng := (e.Rep.FoV.P.Lng - p[0]) * w[0]
			dLat := e.Rep.FoV.P.Lat - p[1]
			c := nearKey{dist2: dLng*dLng + dLat*dLat, e: e}
			switch {
			case maxDist2 > 0 && c.dist2 > maxDist2:
			case len(best) == k && !nearAfter(&best[0], &c):
			case keep != nil && !keep(e):
			case len(best) < k:
				best = minheap.Push(best, c, nearAfter)
			default:
				minheap.ReplaceTop(best, c, nearAfter)
			}
		}
		if len(best) == k {
			return math.Sqrt(best[0].dist2)
		}
		return bound
	}
	x.tree.Snapshot().SearchNear(q, near, bound, offer)
	// best is a max-heap: popping it fills the answer from the back.
	out := make([]Neighbor, len(best))
	for i := len(out) - 1; i >= 0; i-- {
		var c nearKey
		c, best = minheap.Pop(best, nearAfter)
		out[i] = Neighbor{Entry: *c.e, DistanceMeters: geo.Distance(c.e.Rep.FoV.P, center)}
	}
	return out
}

// Nearest implements NearestSearcher by brute force — the oracle the
// differential tests rank the tree implementations against. It applies
// exactly the weighted metric of RTree.Nearest and breaks distance ties
// by ascending id.
func (x *Linear) Nearest(center geo.Point, startMillis, endMillis int64, k int, maxDistanceMeters float64, keep func(*Entry) bool) []Neighbor {
	if k <= 0 {
		return nil
	}
	_, w, maxDist2 := nearestParams(center, maxDistanceMeters)
	type cand struct {
		e     Entry
		dist2 float64
	}
	x.mu.RLock()
	cands := make([]cand, 0, len(x.entries))
	for i := range x.entries {
		e := &x.entries[i] // stable while the read lock is held
		if e.Rep.EndMillis < startMillis || e.Rep.StartMillis > endMillis {
			continue
		}
		dLng := (e.Rep.FoV.P.Lng - center.Lng) * w[0]
		dLat := e.Rep.FoV.P.Lat - center.Lat
		d2 := dLng*dLng + dLat*dLat
		if maxDist2 > 0 && d2 > maxDist2 {
			continue
		}
		if keep != nil && !keep(e) {
			continue
		}
		cands = append(cands, cand{*e, d2})
	}
	x.mu.RUnlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist2 != cands[j].dist2 {
			return cands[i].dist2 < cands[j].dist2
		}
		return cands[i].e.ID < cands[j].e.ID
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Neighbor, len(cands))
	for i, c := range cands {
		out[i] = Neighbor{Entry: c.e, DistanceMeters: geo.Distance(c.e.Rep.FoV.P, center)}
	}
	return out
}

// Compile-time interface checks: RTree meets the contract the
// differential suite drives it through, and the test oracle must keep
// up with the Index extensions.
var (
	_ ServerIndex     = (*RTree)(nil)
	_ Index           = (*Linear)(nil)
	_ BatchInserter   = (*Linear)(nil)
	_ NearestSearcher = (*Linear)(nil)
	_ Index           = (*Grid)(nil)
)
