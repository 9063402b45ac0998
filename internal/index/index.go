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
// it. An interval too long for a leaf slot's 32-bit duration is boxed up
// to the last instant and tested exactly on the way out (see slot). A
// camera seeing farther than the index's base radius grows its point by
// the excess, so a wide device widens only its own key (slotRect).
//
// Every index holds a representative at the grid the WAL and the wire
// carry it at (fov.CoordToGrid: 1e-7°, 0.01°): an entry reads back as
// Entry.OnGrid of what was inserted, bit-identical when it came
// through the wire.
//
// Two implementations share the Index interface: RTree (the paper's
// design, and the one index the server runs) and Linear (the naive scan
// baseline of Fig. 6(c) and the test oracle). Both are safe for
// concurrent use by many uploaders and queriers.
package index

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/idset"
	"fovr/internal/rtree"
	"fovr/internal/segment"
)

// IDSpan is how many ids one server may hand out: ids from IDBase+1 to
// IDBase+IDSpan (server.Config.IDBase). A cluster gives partition i the
// base i·IDSpan, so partitions never hand out the same id.
const IDSpan uint64 = 1 << 48

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

// Validate reports whether the entry can be indexed: a valid FoV and
// interval, and no camera or one valid on the grid (ValidOnGrid).
func (e Entry) Validate() error {
	if err := e.Rep.FoV.Validate(); err != nil {
		return err
	}
	if e.Rep.EndMillis < e.Rep.StartMillis {
		return fmt.Errorf("index: segment interval inverted [%d, %d]",
			e.Rep.StartMillis, e.Rep.EndMillis)
	}
	if e.Camera != (fov.Camera{}) {
		if err := e.Camera.ValidOnGrid(); err != nil {
			return err
		}
	}
	return nil
}

// OnGrid returns e as every Index holds it: its representative's
// position and heading, and its camera, rounded to the grid.
func (e Entry) OnGrid() Entry {
	e.Rep.FoV, e.Camera = e.Rep.FoV.OnGrid(), e.Camera.OnGrid()
	return e
}

// EffectiveCamera returns the entry's own camera, or fallback when the
// entry carries none. Pointer receiver: the filter calls it once per
// candidate on the reference the index hands it.
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
	// entry whose segment interval intersects [startMillis, endMillis]
	// and whose position lies, by geo.Distance, within radius + R of
	// center, R the radius of view of the entry's camera, or deployRadius
	// when it declares none — every entry near enough to cover the disc
	// of radius about center — and reports what the traversal cost
	// (index nodes visited, stored entries tested). It may hand over
	// more. visit answers with a bound: "nothing farther than this many
	// metres from center interests me any more". An index may skip
	// entries strictly beyond the latest bound, and reach near entries
	// first so it tightens early, or ignore it. Order is unspecified; the
	// ranker sorts. A reference is valid for the call only — an index may
	// rebuild the next entry in the same memory — so a caller that keeps
	// an entry copies it, and must not write through the reference.
	Visit(center geo.Point, radius, deployRadius float64, startMillis, endMillis int64, visit func(*Entry) float64) (nodes, scanned int64)
	// Search is the collecting, unbounded form of a walk over the box r:
	// a fresh copy of every entry whose position is in r and whose
	// interval meets the window, whatever its camera. No request path
	// runs it — queries and /nearest walk Visit. Its callers are
	// bench/layers.go's per-layer index row and tests.
	Search(r geo.Rect, startMillis, endMillis int64) []Entry
	// Len returns the number of stored entries.
	Len() int
}

// BatchInserter is the Index extension the upload path uses: adding a
// whole upload atomically, taking each internal lock once instead of
// once per representative. An InsertBatch is all-or-nothing — on error
// no entry of the batch remains indexed.
type BatchInserter interface {
	InsertBatch(entries []Entry) error
}

// ServerIndex is the contract the differential suite drives RTree and
// the Linear oracle through: the core Index operations plus batch
// ingest and removal, and the diagnostics exposed at /metrics. The
// server holds an *RTree, not the interface.
type ServerIndex interface {
	Index
	BatchInserter
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

// slot is what an RTree leaf stores for one entry, in 40 B (36 of
// them data): the id, the representative's position and heading as
// grid codes (fov.CoordToGrid, fov.ThetaToGrid), its interval as a
// start and a 32-bit duration, the row of the entry's (Provider,
// Camera) pair in the index's source table, and how far its camera sees
// past the index's base radius. Every entry of one upload carries the
// same pair, so the index keeps it once instead of once per entry;
// reads rebuild the Entry from the slot and its row.
//
// An interval of overLong milliseconds or more (about 49.7 days; only
// a bad clock makes one) does not fit dur: its slot stores dur =
// overLong and its row holds the exact end.
type slot struct {
	ID       uint64
	Start    int64
	lat, lng int32
	dur      uint32
	src      uint32
	theta    uint16
	wide     uint16 // the excess in whole metres (RTree.excess); globe and up keys the whole globe
}

const globe = math.MaxUint16 // the excess that keys a slot by the whole globe

// overLong is the dur of a slot whose interval is too long to store
// there: its end lives in its source row.
const overLong = math.MaxUint32

// source is one row of an RTree's source table: the fields of Entry a
// slot does not hold. end is set only in the rows of over-long
// intervals, one row per distinct end.
type source struct {
	Provider string
	Camera   fov.Camera
	end      int64
}

// sourceKey returns e's row in the source table: its (Provider, Camera)
// pair, the camera on the grid, with its end when its interval is
// over-long.
func sourceKey(e *Entry) source {
	k := source{Provider: e.Provider, Camera: e.Camera.OnGrid()}
	if durOf(e) == overLong {
		k.end = e.Rep.EndMillis
	}
	return k
}

// durOf returns the dur of e's slot: the interval's length, or overLong.
func durOf(e *Entry) uint32 {
	// A valid interval's length fits a uint64 even where the int64
	// difference wraps.
	return uint32(min(uint64(e.Rep.EndMillis)-uint64(e.Rep.StartMillis), overLong))
}

// newSlot returns e's leaf slot under source row row with excess wide.
func newSlot(e *Entry, row uint32, wide uint16) slot {
	p := e.Rep.FoV.P
	return slot{ID: e.ID, Start: e.Rep.StartMillis, lat: fov.CoordToGrid(p.Lat), lng: fov.CoordToGrid(p.Lng),
		dur: durOf(e), src: row, theta: fov.ThetaToGrid(e.Rep.FoV.Theta), wide: wide}
}

// point returns s's position.
func (s *slot) point() geo.Point {
	return geo.Point{Lat: fov.CoordFromGrid(s.lat), Lng: fov.CoordFromGrid(s.lng)}
}

// end returns the end of s's interval, reading rows for an over-long
// one. rows is the source table published with the snapshot s lies in.
func (s *slot) end(rows []source) int64 {
	if s.dur == overLong {
		return rows[s.src].end
	}
	return s.Start + int64(s.dur)
}

// pointRect is a slot's point over its interval in index space. An
// over-long slot's box runs to the last instant: its exact end is in
// its row, which the tree does not read, and every read path tests that
// end itself.
func pointRect(s *slot) rtree.Rect {
	end := float64(s.Start + int64(s.dur))
	if s.dur == overLong {
		end = math.MaxInt64
	}
	p := s.point()
	return rtree.Rect{
		Min: [rtree.Dims]float64{p.Lng, p.Lat, float64(s.Start)},
		Max: [rtree.Dims]float64{p.Lng, p.Lat, end},
	}
}

// slotRect is the tree's bounds function, derived from the slot
// whenever the tree needs it, so leaves store the slot and nothing else:
// its pointRect grown by its excess (reachBoxes; all longitudes where
// that splits at the antimeridian, the whole globe at saturation), which
// a walk over the base reach meets wherever its camera may cover.
func slotRect(s *slot) rtree.Rect {
	r := pointRect(s)
	if s.wide != 0 {
		k, n := reachBoxes(s.point(), float64(s.wide))
		if n > 1 {
			k[0].MinLng, k[0].MaxLng = -180, 180
		}
		if s.wide == globe {
			k[0] = geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
		}
		r.Min[0], r.Min[1], r.Max[0], r.Max[1] = k[0].MinLng, k[0].MinLat, k[0].MaxLng, k[0].MaxLat
	}
	return r
}

// queryRect maps a geographic box plus time interval to index space.
func queryRect(r geo.Rect, startMillis, endMillis int64) rtree.Rect {
	return rtree.Rect{
		Min: [rtree.Dims]float64{r.MinLng, r.MinLat, float64(startMillis)},
		Max: [rtree.Dims]float64{r.MaxLng, r.MaxLat, float64(endMillis)},
	}
}

// sourceTable is an RTree's source table as its writer keeps it: the
// rows, how many slots name each, and where each live source is. A row
// dies with the last slot naming it. Published views share rows' array
// up to their own length, so a dead row is written again only in an
// array no view that may still name it shares: reclaim copies the
// table once dead rows are half of it, and the copy's dead rows are
// free for reuse. The table thus holds at most about twice the rows
// its live slots name, however many entries come and go.
type sourceTable struct {
	rows  []source
	refs  []uint32          // slots naming each row
	index map[source]uint32 // each live row of rows
	dead  []uint32          // rows that died in rows' array
	free  []uint32          // rows no view sharing rows' array names
	last  uint32            // the row intern returned last
}

// intern returns the row of a new slot with source k, counting the slot
// against it. An upload's entries share their source, so the row last
// returned is tried before the map: while live, it is its source's row.
func (t *sourceTable) intern(k source) (uint32, error) {
	row := t.last
	ok := int(row) < len(t.rows) && t.refs[row] > 0 && t.rows[row] == k
	if !ok {
		row, ok = t.index[k]
	}
	if !ok {
		if n := len(t.free); n > 0 {
			row, t.free = t.free[n-1], t.free[:n-1]
			t.rows[row] = k
		} else if len(t.rows) >= noRow {
			return 0, fmt.Errorf("index: source table full at %d rows", len(t.rows))
		} else {
			row = uint32(len(t.rows))
			t.rows = append(t.rows, k)
			t.refs = append(t.refs, 0)
		}
		t.index[k] = row
	}
	t.refs[row]++
	t.last = row
	return row, nil
}

// release uncounts a removed slot from its row; the row dies with its
// last slot.
func (t *sourceTable) release(row uint32) {
	if t.refs[row]--; t.refs[row] == 0 {
		delete(t.index, t.rows[row])
		t.dead = append(t.dead, row)
	}
}

// reclaim copies the table into a fresh array once its dead rows are
// half of it, clearing them there and freeing them for reuse. The copy
// is published only with a snapshot whose slots no longer name them;
// views published before keep the old array.
func (t *sourceTable) reclaim() {
	if len(t.dead) == 0 || 2*len(t.dead) < len(t.rows) {
		return
	}
	rows := make([]source, len(t.rows))
	copy(rows, t.rows)
	for _, row := range t.dead {
		rows[row] = source{}
	}
	t.rows, t.free, t.dead = rows, append(t.free, t.dead...), t.dead[:0]
}

// view is what a reader of an RTree loads, in one step: a published
// snapshot and the source table its slots name.
type view struct {
	snap *rtree.Snapshot[slot]
	rows []source
}

// RTree is the R-tree-backed index of Section V. The zero value is not
// usable; construct with NewRTree.
//
// Writers serialize on mu; readers load an immutable snapshot of the
// tree and traverse it with no locks, so they never observe a partially
// applied batch. A snapshot is frozen only when a reader will see it: a
// mutation publishes at once when a reader has loaded the view since
// the last publish (looked), and otherwise marks the view stale and
// leaves the tree in the writer's generation, so back-to-back uploads
// with no reader between them clone no root-to-leaf path twice. The
// first read of a stale view publishes it under mu, waiting at most for
// the one mutation in flight; a read that finds the view current takes
// no lock. ids holds every stored id, so a duplicate is refused without
// a tree walk.
//
// The leaves hold slots; the (Provider, Camera) pairs live in the source
// table, one row per distinct pair the leaves hold (and one per
// distinct end of an over-long interval), which gives a row back once
// a forget removes its last slot (sourceTable). The writer publishes
// each snapshot together with the table its slots name, as one view,
// and a reader loads the view once, so every row a reader meets holds
// what its slots were stored with.
type RTree struct {
	mu   sync.Mutex // writers, and the read that publishes a stale view
	base float64    // the radius of view keys are sized against (excess)
	tree *rtree.Tree[slot]
	ids  idset.Set
	src  sourceTable // writers only
	view atomic.Pointer[view]
	// stale: the tree holds completed mutations view does not (written
	// under mu). looked: a reader has loaded view since the last publish.
	stale, looked atomic.Bool
}

// NewRTree returns an empty R-tree index of base radius 0: every
// declared camera grows its key by its whole radius of view.
func NewRTree() *RTree { return newRTree(rtree.Options{}, 0) }

// newRTree returns an empty R-tree index over a tree of shape opts, its
// keys sized against base.
func newRTree(opts rtree.Options, base float64) *RTree {
	x := &RTree{base: base, tree: rtree.MustNew(opts, slotRect), src: sourceTable{index: make(map[source]uint32)}}
	x.view.Store(&view{snap: x.tree.Snapshot()})
	return x
}

// excess returns how far past base a camera of the radius of view (0:
// none) sees, in metres rounded up, saturating at globe.
func (x *RTree) excess(radius float64) uint16 {
	return uint16(min(math.Ceil(max(radius-x.base, 0)), globe))
}

// slotOf interns e's source row and returns e's leaf slot. The caller
// holds mu, or owns an index no reader has yet.
func (x *RTree) slotOf(e *Entry) (slot, error) {
	k := sourceKey(e)
	row, err := x.src.intern(k)
	if err != nil {
		return slot{}, err
	}
	return newSlot(e, row, x.excess(k.Camera.RadiusMeters)), nil
}

// viewOf returns the view of snap: the table it names.
func (x *RTree) viewOf(snap *rtree.Snapshot[slot]) *view {
	return &view{snap: snap, rows: x.src.rows}
}

// publish makes the tree's state, and the table it names, what readers
// load (mu held). The view is stored before stale clears, so a reader
// that finds the view current loads one holding every completed
// mutation.
func (x *RTree) publish() {
	x.looked.Store(false)
	x.view.Store(x.viewOf(x.tree.Publish()))
	x.stale.Store(false)
}

// commit ends a mutation (mu held): it publishes when a reader has
// looked since the last publish, and otherwise leaves the view stale
// for the first read to publish. Either way it reclaims dead source
// rows: the copy is the writer's alone until a publish shares it.
func (x *RTree) commit() {
	x.src.reclaim()
	if x.looked.Load() {
		x.publish()
	} else {
		x.stale.Store(true)
	}
}

// current returns the view every read loads: the published one, after
// publishing a stale one under mu. Writer-side code under mu must not
// call it.
func (x *RTree) current() *view {
	if x.stale.Load() {
		x.mu.Lock()
		if x.stale.Load() {
			x.publish()
		}
		x.mu.Unlock()
	}
	if !x.looked.Load() {
		x.looked.Store(true)
	}
	return x.view.Load()
}

// BulkLoadRTree builds an R-tree index by STR packing every entry that
// produce hands to add — the one way to build an index from a whole
// state at once. add validates the entry, checks its id and keeps a
// 40-B slot of it, never the entry, so produce may reuse what it hands
// over; an error from add aborts the load, and produce returns it. n,
// how many entries produce hands over (an estimate is fine), sizes the
// slot array. radius, the deployment camera's radius of view, is the
// index's base, so the deployment camera keeps a point key.
func BulkLoadRTree(radius float64, n int, produce func(add func(*Entry) error) error) (*RTree, error) {
	return bulkLoadRTree(rtree.Options{}, radius, n, produce)
}

// bulkLoadRTree is BulkLoadRTree packing a tree of shape opts.
func bulkLoadRTree(opts rtree.Options, radius float64, n int, produce func(add func(*Entry) error) error) (*RTree, error) {
	x := newRTree(opts, radius)
	slots := make([]slot, 0, max(n, 0))
	err := produce(func(e *Entry) error {
		if err := e.Validate(); err != nil {
			return err
		}
		if !x.ids.Add(e.ID) {
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
		s, err := x.slotOf(e)
		if err == nil {
			slots = append(slots, s)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t, err := rtree.BulkLoad(opts, slotRect, slots)
	if err != nil {
		return nil, err
	}
	x.tree = t
	x.view.Store(x.viewOf(t.Snapshot()))
	return x, nil
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
	x.commit()
	return nil
}

func (x *RTree) insertLocked(e Entry) error {
	if x.ids.Has(e.ID) {
		return fmt.Errorf("index: duplicate id %d", e.ID)
	}
	s, err := x.slotOf(&e)
	if err != nil {
		return err
	}
	if err := x.tree.Insert(s); err != nil {
		return err
	}
	x.ids.Add(e.ID)
	return nil
}

// InsertBatch implements BatchInserter: the whole batch is validated,
// checked for duplicates, and inserted under a single acquisition of
// the tree lock. On any failure the already-inserted prefix is removed
// again, so the batch is all-or-nothing. The whole batch becomes
// visible to readers in one publish (commit) — a reader sees either
// none of the batch or all of it.
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
	x.commit()
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
// increases by exactly 1 per publish — one for each mutation while
// readers look between them, one for a run of mutations no reader saw
// — which is what the read-correctness suites pin monotonicity against.
func (x *RTree) ReadEpoch() uint64 {
	return x.current().snap.Epoch()
}

// RemoveBatch implements ServerIndex under one acquisition of the tree
// lock and with at most one publish. Each entry is found by its
// rectangle and id, so it must be as inserted or as read from this
// index (both round to the stored slot); an entry whose id is not
// stored, or is stored under another rectangle, is skipped.
func (x *RTree) RemoveBatch(entries []Entry) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := x.removeLocked(entries)
	if n > 0 {
		x.commit()
	}
	return n
}

// RemoveWhere removes every entry match accepts, under one acquisition
// of the tree lock and with at most one publish, and returns how many it
// removed. A non-nil journal is handed the matching ids first, still
// under the lock; if it fails, nothing is removed and its error is
// returned. match is handed the same per-call references as Scan's fn,
// over the writer's own tree and source rows. match and journal run
// under the lock and must not call x.
func (x *RTree) RemoveWhere(match func(*Entry) bool, journal func(ids []uint64) error) (int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	var gone []Entry
	w := newWalker(x.src.rows)
	w.scan = func(e *Entry) bool {
		if match(e) {
			gone = append(gone, *e)
		}
		return true
	}
	x.tree.Scan(w.onScan)
	w.release()
	if len(gone) == 0 {
		return 0, nil
	}
	if journal != nil {
		ids := make([]uint64, len(gone))
		for i := range gone {
			ids[i] = gone[i].ID
		}
		if err := journal(ids); err != nil {
			return 0, err
		}
	}
	n := x.removeLocked(gone)
	x.commit()
	return n, nil
}

// Providers returns how many entries each provider has in the index:
// the slots naming each live source row, summed by provider (a
// provider's over-long entries have rows of their own).
func (x *RTree) Providers() map[string]int {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[string]int)
	for k, row := range x.src.index {
		out[k.Provider] += int(x.src.refs[row])
	}
	return out
}

// removeLocked deletes each entry found by its id and its slot's
// rectangle, which its camera's excess sizes; an over-long one must
// also end where its row does. The removed slot's row loses a slot.
func (x *RTree) removeLocked(entries []Entry) int {
	n := 0
	for i := range entries {
		e := &entries[i]
		if !x.ids.Has(e.ID) {
			continue
		}
		at, row := newSlot(e, noRow, x.excess(e.Camera.OnGrid().RadiusMeters)), uint32(noRow)
		if x.tree.Delete(&at, func(s *slot) bool {
			if s.ID != e.ID || s.end(x.src.rows) != e.Rep.EndMillis {
				return false
			}
			row = s.src
			return true
		}) {
			x.src.release(row)
			x.ids.Delete(e.ID)
			n++
		}
	}
	return n
}

// walker rebuilds entries from slots for one read of an RTree. The
// entry it hands out is buf, refilled for every slot: ID and Rep each
// time, Provider and Camera only when the slot's row differs from the
// one buf holds, so a run of slots from one upload copies them once.
// Walkers are pooled, and onLeaf and onScan are bound to the walker
// once, when it is made, so a read allocates no closure.
type walker struct {
	buf     Entry
	row     uint32 // the row buf holds; noRow before the first slot
	sources []source
	// Visit's question in slot units (see visitLeaf): the grid code
	// spans of its box, its window as queryRect holds it, the steering,
	// and the window, which over-long and wide slots are tested against.
	lng0, lng1, lat0, lat1 int32
	t0, t1                 float64
	near                   rtree.Near
	reach                  float64 // the cap on every bound visit answers
	from, to               int64
	// Visit's disc and deployment radius and, on a split reach, the wide
	// slots it handed over: what wideIn tests a wide slot against (keyed).
	keyed, split   bool
	center         geo.Point
	radius, deploy float64
	handed         []uint64
	visit          func(*Entry) float64
	scan           func(*Entry) bool
	onLeaf         func([]slot, float64) float64
	onScan         func(*slot) bool
}

// noRow is past the end of every source table (intern never hands out
// a row this large), so the first slot of a walk always fills buf.
const noRow = math.MaxUint32

var walkerPool = sync.Pool{New: func() any {
	w := new(walker)
	w.onLeaf = w.visitLeaf
	w.onScan = func(s *slot) bool { return w.scan(w.entry(s)) }
	return w
}}

// visitLeaf is Visit's leaf test, made in slot units: a slot's position
// is in the box exactly when its grid codes lie in the box's code spans
// (gridSpan), and its interval is compared as pointRect's float64 times,
// so it admits exactly the slots whose pointRect(s) intersects queryRect.
// Only those are bounded by near over that rectangle, as the tree bounds
// its children, and handed to visit — an over-long one only if its exact
// end reaches the window (its box runs to the last instant). Visit tests
// a slot with an excess by wideIn instead. No bound visit answers
// exceeds the walk's reach.
func (w *walker) visitLeaf(slots []slot, bound float64) float64 {
	for i := range slots {
		if bound < 0 {
			break
		}
		s := &slots[i]
		if s.wide == 0 || !w.keyed {
			if s.lng < w.lng0 || s.lng > w.lng1 || s.lat < w.lat0 || s.lat > w.lat1 ||
				float64(s.Start) > w.t1 || s.dur != overLong && w.t0 > float64(s.Start+int64(s.dur)) {
				continue
			}
			if r := pointRect(s); w.near.MinDist2(&r) > bound*bound ||
				s.dur == overLong && s.end(w.sources) < w.from {
				continue
			}
		} else if !w.wideIn(s) {
			continue
		}
		bound = min(w.visit(w.entry(s)), w.reach)
	}
	return bound
}

// wideIn reports whether Visit hands over s, a slot with an excess: in
// the window and within radius + max(deploy, its camera's) by
// geo.Distance (Linear's test), and, on a reach split at the
// antimeridian whose both boxes its key may meet, not yet handed over.
func (w *walker) wideIn(s *slot) bool {
	if s.Start > w.to || s.end(w.sources) < w.from ||
		geo.Distance(s.point(), w.center) > w.radius+max(w.deploy, w.sources[s.src].Camera.RadiusMeters) {
		return false
	}
	if w.split {
		if slices.Contains(w.handed, s.ID) {
			return false
		}
		w.handed = append(w.handed, s.ID)
	}
	return true
}

// gridSpan returns the least and the greatest grid code whose coordinate
// (fov.CoordFromGrid) a box edge of [lo, hi] does not exclude, as the
// float test excludes it: a code is in the span exactly when its
// coordinate is neither below lo nor above hi. The span is empty (first
// > last) when no code is. CoordFromGrid is strictly increasing, so the
// rounded code is stepped to the exact edge.
func gridSpan(lo, hi float64) (first, last int32) {
	const bottom, top = math.MinInt32, math.MaxInt32
	if lo > fov.CoordFromGrid(top) || hi < fov.CoordFromGrid(bottom) {
		return 1, 0
	}
	first, last = bottom, top
	if lo > fov.CoordFromGrid(bottom) {
		for first = fov.CoordToGrid(lo); fov.CoordFromGrid(first) < lo; first++ {
		}
		for fov.CoordFromGrid(first-1) >= lo {
			first--
		}
	}
	if hi < fov.CoordFromGrid(top) {
		for last = fov.CoordToGrid(hi); fov.CoordFromGrid(last) > hi; last-- {
		}
		for fov.CoordFromGrid(last+1) <= hi {
			last++
		}
	}
	return first, last
}

// read loads the current view into a pooled walker: its snapshot, and
// the source table every row its slots name is in.
func (x *RTree) read() (*rtree.Snapshot[slot], *walker) {
	v := x.current()
	return v.snap, newWalker(v.rows)
}

// newWalker returns a pooled walker over the source table rows.
func newWalker(rows []source) *walker {
	w := walkerPool.Get().(*walker)
	w.sources, w.row = rows, noRow
	return w
}

// release drops the walker's references and returns it to the pool.
func (w *walker) release() {
	w.buf, w.sources, w.visit, w.scan, w.keyed, w.split, w.handed = Entry{}, nil, nil, nil, false, false, w.handed[:0]
	walkerPool.Put(w)
}

// entry rebuilds s's Entry in buf and returns it.
func (w *walker) entry(s *slot) *Entry {
	w.buf.ID = s.ID
	w.buf.Rep = segment.Representative{FoV: fov.FoV{P: s.point(), Theta: fov.ThetaFromGrid(s.theta)}, StartMillis: s.Start, EndMillis: s.end(w.sources)}
	if s.src != w.row {
		src := &w.sources[s.src]
		w.buf.Provider, w.buf.Camera = src.Provider, src.Camera
		w.row = s.src
	}
	return &w.buf
}

// Visit implements Index. It walks the current view's snapshot, taking
// no lock unless it publishes a stale view, over the reach: radius plus
// the larger of deployRadius and the index's base. The walk covers the
// boxes that hold the reach (reachBoxes), from the bound reach, steered
// by the bounds visit answers with; every entry is rebuilt in the one
// walker buffer. A wide device is met through its key and tested by
// wideIn.
func (x *RTree) Visit(center geo.Point, radius, deployRadius float64, startMillis, endMillis int64, visit func(*Entry) float64) (nodes, scanned int64) {
	v := x.current()
	reach := radius + max(deployRadius, x.base)
	boxes, n := reachBoxes(center, reach)
	w := newWalker(v.rows)
	w.keyed, w.split, w.center, w.radius, w.deploy = true, n > 1, center, radius, deployRadius
	return v.walk(w, boxes[:n], startMillis, endMillis, center, reach, visit)
}

// Search implements Index: the unbounded walk over r, which tests every
// entry's position against r.
func (x *RTree) Search(r geo.Rect, startMillis, endMillis int64) []Entry {
	var out []Entry
	v := x.current()
	v.walk(newWalker(v.rows), []geo.Rect{r}, startMillis, endMillis, r.Center(), math.Inf(1), func(e *Entry) float64 {
		out = append(out, *e)
		return math.Inf(1)
	})
	return out
}

// walk hands visit, through w, the entries of the view in each of the
// boxes and the window, nearest center first, each box from the bound
// reach, and releases w.
func (v *view) walk(w *walker, boxes []geo.Rect, startMillis, endMillis int64, center geo.Point, reach float64, visit func(*Entry) float64) (nodes, scanned int64) {
	for _, r := range boxes {
		q := w.ask(r, startMillis, endMillis, center, reach, visit)
		n, s := v.snap.SearchNear(q, w.near, reach, w.onLeaf)
		nodes, scanned = nodes+n, scanned+s
	}
	w.release()
	return nodes, scanned
}

// reachBoxes returns the n disjoint boxes that hold every position
// within reach of center by geo.Distance, which scales longitude by the
// mid-latitude's cosine and wraps it at ±180°: geo.RectAround(center,
// reach) with its longitude span sized at its pole-ward edge, cut at
// the antimeridian, and all longitudes when it holds a pole.
func reachBoxes(center geo.Point, reach float64) (boxes [2]geo.Rect, n int) {
	r := geo.RectAround(center, reach)
	edge := math.Max(math.Abs(r.MinLat), math.Abs(r.MaxLat))
	dLng := reach / (geo.MetersPerDegree * math.Cos(edge*math.Pi/180))
	r.MinLng, r.MaxLng = center.Lng-dLng, center.Lng+dLng
	wrap := r
	switch {
	case edge >= 90 || r.MaxLng-r.MinLng >= 360:
		r.MinLng, r.MaxLng = -180, 180
	case r.MaxLng > 180:
		wrap.MinLng, wrap.MaxLng, r.MaxLng = -180, r.MaxLng-360, 180
		return [2]geo.Rect{r, wrap}, 2
	case r.MinLng < -180:
		wrap.MinLng, wrap.MaxLng, r.MinLng = r.MinLng+360, 180, -180
		return [2]geo.Rect{r, wrap}, 2
	}
	return [2]geo.Rect{r}, 1
}

// ask sets w up to answer a walk's question in slot units (visitLeaf),
// its bounds capped at reach, and returns the question's index-space box.
func (w *walker) ask(r geo.Rect, startMillis, endMillis int64, center geo.Point, reach float64, visit func(*Entry) float64) rtree.Rect {
	q := queryRect(r, startMillis, endMillis)
	w.lng0, w.lng1 = gridSpan(r.MinLng, r.MaxLng)
	w.lat0, w.lat1 = gridSpan(r.MinLat, r.MaxLat)
	w.t0, w.t1, w.near = q.Min[2], q.Max[2], nearFor(r, center)
	w.visit, w.from, w.to, w.reach = visit, startMillis, endMillis, reach
	return q
}

// Len implements Index.
func (x *RTree) Len() int {
	return x.current().snap.Len()
}

// Height exposes the underlying tree height for diagnostics.
func (x *RTree) Height() int {
	return x.current().snap.Height()
}

// Scan calls fn with a reference to every entry of the current
// snapshot, in unspecified order, until fn returns false. Like Visit's,
// a reference is valid for the call only: a caller that keeps an entry
// copies it, and must not write through the reference.
func (x *RTree) Scan(fn func(*Entry) bool) {
	snap, w := x.read()
	w.scan = fn
	snap.Scan(w.onScan)
	w.release()
}

// Entries returns a copy of every stored entry, in unspecified order —
// the input to a snapshot. The copy is taken from the current
// snapshot, so it is a consistent cut even while writers are active.
func (x *RTree) Entries() []Entry {
	out := make([]Entry, 0, x.Len())
	x.Scan(func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// NodeCount returns the current snapshot's node count (diagnostics).
func (x *RTree) NodeCount() int {
	return x.current().snap.NodeCount()
}

// TreeStats returns the underlying tree's lifetime operation counters
// (node visits, leaf scans, inserts/deletes/reinserts/splits) — the
// numbers the server exposes at /metrics. Counters reset when the tree
// is replaced (a replication bootstrap).
func (x *RTree) TreeStats() rtree.Stats {
	return x.tree.Stats()
}

// CheckInvariants publishes a stale view, then validates the underlying
// tree structure, the publication contract — after any public mutation
// returns, the view holds the current tree state or is marked stale —
// the id set — exactly
// the ids the leaves hold, each once — and the source table: every
// slot's row is in the published table and the writer's alike, an
// over-long slot's row holds an end at least overLong past its start,
// each row counts the slots naming it, the map names each live row
// once, and every other row is dead or free (tests only; the caller
// must be quiescent).
func (x *RTree) CheckInvariants() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stale.Load() {
		x.publish()
	}
	if err := x.tree.CheckInvariants(); err != nil {
		return err
	}
	v, t := x.view.Load(), &x.src
	if v.snap != x.tree.Snapshot() {
		return fmt.Errorf("index: the published view holds epoch %d, the tree published %d", v.snap.Epoch(), x.tree.Snapshot().Epoch())
	}
	if v.snap.Len() != x.tree.Len() {
		return fmt.Errorf("index: published snapshot has %d entries, tree has %d (unpublished mutation)", v.snap.Len(), x.tree.Len())
	}
	var err error
	var seen idset.Set
	refs := make([]uint32, len(t.rows))
	x.tree.Scan(func(s *slot) bool {
		if int(s.src) >= len(v.rows) || int(s.src) >= len(t.rows) {
			err = fmt.Errorf("index: id %d names source row %d of %d published, %d kept", s.ID, s.src, len(v.rows), len(t.rows))
		} else if v.rows[s.src] != t.rows[s.src] {
			err = fmt.Errorf("index: id %d's row %d is %+v published, %+v kept", s.ID, s.src, v.rows[s.src], t.rows[s.src])
		} else if end := t.rows[s.src].end; s.dur == overLong && (end < s.Start || uint64(end)-uint64(s.Start) < overLong) {
			err = fmt.Errorf("index: over-long id %d starts at %d, its row %d ends at %d", s.ID, s.Start, s.src, end)
		} else if !x.ids.Has(s.ID) {
			err = fmt.Errorf("index: leaf id %d missing from the id set", s.ID)
		} else if !seen.Add(s.ID) {
			err = fmt.Errorf("index: id %d stored twice", s.ID)
		} else {
			refs[s.src]++
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if seen.Len() != x.ids.Len() {
		x.ids.Range(func(id uint64) bool {
			if !seen.Has(id) {
				err = fmt.Errorf("index: id %d in the id set but in no leaf", id)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	live := 0
	for row, n := range refs {
		if n != t.refs[row] {
			return fmt.Errorf("index: source row %d counts %d slots, %d name it", row, t.refs[row], n)
		}
		if n == 0 {
			continue
		}
		live++
		if at, ok := t.index[t.rows[row]]; !ok || int(at) != row {
			return fmt.Errorf("index: live source row %d (%q) is not in the map", row, t.rows[row].Provider)
		}
	}
	if live != len(t.index) || live+len(t.dead)+len(t.free) != len(t.rows) {
		return fmt.Errorf("index: %d source rows: %d live, %d mapped, %d dead, %d free", len(t.rows), live, len(t.index), len(t.dead), len(t.free))
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

// Insert implements Index: a batch of one.
func (x *Linear) Insert(e Entry) error { return x.InsertBatch([]Entry{e}) }

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
		if e.Rep.EndMillis >= startMillis && e.Rep.StartMillis <= endMillis && r.Contains(e.Rep.FoV.P) {
			out = append(out, e)
		}
	}
	return out
}

// Visit implements Index as the oracle it is: it copies out exactly the
// entries of the window that stand within radius + R of center by
// geo.Distance, R each entry's own radius of view (deployRadius for
// none), and ignores the bound, so it shares no region and no steering
// with the walks it checks. visit runs on the copy, after the lock is
// released, as the entries are rewritten in place. A linear index has
// no tree nodes; every stored entry is one scanned entry, which is
// exactly the cost a trace should show for the baseline.
func (x *Linear) Visit(center geo.Point, radius, deployRadius float64, startMillis, endMillis int64, visit func(*Entry) float64) (nodes, scanned int64) {
	var hits []Entry
	x.mu.RLock()
	for i := range x.entries {
		e := &x.entries[i]
		if e.Rep.EndMillis >= startMillis && e.Rep.StartMillis <= endMillis &&
			geo.Distance(e.Rep.FoV.P, center) <= radius+e.EffectiveCamera(fov.Camera{RadiusMeters: deployRadius}).RadiusMeters {
			hits = append(hits, *e)
		}
	}
	scanned = int64(len(x.entries))
	x.mu.RUnlock()
	for i := range hits {
		visit(&hits[i])
	}
	return 0, scanned
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
	for _, e := range entries {
		if _, dup := x.byID[e.ID]; dup {
			for _, added := range x.entries[base:] {
				delete(x.byID, added.ID)
			}
			x.entries = x.entries[:base]
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
		x.byID[e.ID] = len(x.entries)
		x.entries = append(x.entries, e.OnGrid())
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

// Compile-time interface checks: RTree meets the contract the
// differential suite drives it through, and the test oracle must keep
// up with the Index extensions.
var (
	_ ServerIndex   = (*RTree)(nil)
	_ Index         = (*Linear)(nil)
	_ BatchInserter = (*Linear)(nil)
)
