// Package query implements the rank-based retrieval of Section V-B: it
// turns an inquirer's request Q = (t_s, t_e, p, r) into an index lookup,
// applies the paper's four-step filtering mechanism, and returns the top-N
// most relevant video segments.
//
// The four steps, as the paper lists them:
//
//  1. Find the candidates from an empirical radius of view for the area
//     type (20 m residential, 100 m highway, ...): every camera near
//     enough to cover the query circle, including those standing outside
//     it but looking into it.
//  2. Sort candidate FoVs by distance to the query center — closer
//     cameras are less likely to be occluded by trees or walls.
//  3. Exclude FoVs with an improper direction: the camera must actually
//     cover the query range, not merely be near it (the Merkel /
//     World-Cup-final example).
//  4. Return the top N records.
//
// SearchCtx runs the four as one walk of the index that the ranker
// steers: the reach (r plus the deployment's radius of view, and a
// device that sees farther within r plus its own) bounds what the index
// looks at, and the N-th best distance found so far bounds it further
// once there is one.
package query

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/minheap"
	"fovr/internal/obs"
)

// AreaType selects the empirical radius of view of Section V-B / VII.
type AreaType int

const (
	// Residential areas: short sight lines (20 m).
	Residential AreaType = iota
	// Urban open areas: medium sight lines (50 m).
	Urban
	// Highway: long sight lines (100 m).
	Highway
)

// EmpiricalRadius returns the paper's rule-of-thumb radius of view in
// meters for the area type.
func (a AreaType) EmpiricalRadius() float64 {
	switch a {
	case Residential:
		return 20
	case Urban:
		return 50
	case Highway:
		return 100
	default:
		return 20
	}
}

func (a AreaType) String() string {
	switch a {
	case Residential:
		return "residential"
	case Urban:
		return "urban"
	case Highway:
		return "highway"
	default:
		return fmt.Sprintf("AreaType(%d)", int(a))
	}
}

// Query is the inquirer's request Q = (t_s, t_e, p, r): find video
// segments recorded during [StartMillis, EndMillis] that cover the
// circular area of RadiusMeters around Center.
type Query struct {
	StartMillis  int64     `json:"startMillis"`
	EndMillis    int64     `json:"endMillis"`
	Center       geo.Point `json:"center"`
	RadiusMeters float64   `json:"radiusMeters"`
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	if !q.Center.Valid() {
		return fmt.Errorf("query: invalid center %v", q.Center)
	}
	if q.EndMillis < q.StartMillis {
		return fmt.Errorf("query: time interval inverted [%d, %d]", q.StartMillis, q.EndMillis)
	}
	if q.RadiusMeters < 0 || math.IsNaN(q.RadiusMeters) || math.IsInf(q.RadiusMeters, 0) {
		return fmt.Errorf("query: invalid radius %v", q.RadiusMeters)
	}
	return nil
}

// Options tunes the ranker.
type Options struct {
	// Camera is the deployment's viewing geometry (alpha, R), the
	// filter's camera for entries that declare none. The index hands
	// over every entry near enough to cover the query circle: within the
	// query radius plus R, or plus the entry's own radius of view
	// (index.Index.Visit).
	Camera fov.Camera
	// MaxResults is N of step 4. Zero means unlimited.
	MaxResults int
	// SkipOrientationFilter disables step 3, returning every FoV near
	// enough to cover the query circle (within R + r of its center, R
	// its own camera's) whichever way it faces — the pre-filtering
	// behaviour the paper argues against. Exposed for the ablation
	// benchmarks.
	SkipOrientationFilter bool
}

// Ranked is one retrieval result: the index entry plus the rank metric.
type Ranked struct {
	Entry index.Entry `json:"entry"`
	// DistanceMeters is the camera's distance to the query center, the
	// paper's ranking key (closer first).
	DistanceMeters float64 `json:"distanceMeters"`
}

// Search executes the full retrieval pipeline against an index and
// returns results sorted by ascending distance to the query center,
// truncated to MaxResults. It is SearchCtx with no trace attached.
func Search(idx index.Index, q Query, opts Options) ([]Ranked, error) {
	return SearchCtx(context.Background(), idx, q, opts)
}

// rankKey is one filter survivor as the ranker holds it: the paper's
// ranking key (distance, with the id as the deterministic tie-break) and
// where its entry is kept. The index's reference is valid for the visit
// only, so the entry is copied into the scratch's entries — but only
// when the survivor enters the top N kept so far — and the heap and the
// final sort move the small keys, not the entries.
type rankKey struct {
	dist float64
	id   uint64
	at   int // index into scratch.entries
}

// after reports whether a ranks strictly after b. It is the heap order:
// the rank keys form a max-heap whose top is the worst key kept.
func after(a, b *rankKey) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.id > b.id
}

// scratch is the per-query working memory: the question being answered,
// the tallies the walk keeps, the rank keys and their entries. All of it
// is dead once the results are materialised, so it is pooled — and
// visit is bound to it once, when the scratch is made, so handing the
// index a callback allocates no closure per question.
type scratch struct {
	q       Query
	opts    Options
	tr      *obs.QueryTrace
	keys    []rankKey
	entries []index.Entry
	drops   [fov.NumCoverage]int
	// candidates counts the entries the index handed over, ranked those
	// that survived the filter (kept or not).
	candidates, ranked int
	visit              func(*index.Entry) float64
}

// scratchCap bounds what goes back to the pool, in rank keys: one huge
// question must not leave its buffer pinned behind every later small
// one.
const scratchCap = 1 << 16

var scratchPool = sync.Pool{New: func() any {
	sc := new(scratch)
	sc.visit = sc.offerEntry
	return sc
}}

// release clears the kept entries (a pooled buffer must not keep their
// provider strings alive) and returns the scratch to the pool unless the
// question grew it past scratchCap.
func (sc *scratch) release() {
	if cap(sc.keys) > scratchCap {
		return
	}
	clear(sc.entries)
	*sc = scratch{keys: sc.keys[:0], entries: sc.entries[:0], visit: sc.visit}
	scratchPool.Put(sc)
}

// offer adds a survivor at distance dist to the rank keys. With a
// result limit the keys are a heap of at most limit entries, so a
// survivor that does not beat the worst one kept costs one comparison
// and no copy, and one that does takes over the evicted key's entry
// slot; with no limit every key is kept for the final sort.
func (sc *scratch) offer(dist float64, e *index.Entry) {
	k := rankKey{dist: dist, id: e.ID, at: len(sc.entries)}
	limit := sc.opts.MaxResults
	if limit > 0 && len(sc.keys) == limit {
		if after(&sc.keys[0], &k) {
			k.at = sc.keys[0].at
			sc.entries[k.at] = *e
			minheap.ReplaceTop(sc.keys, k, after)
		}
		return
	}
	sc.entries = append(sc.entries, *e)
	if limit > 0 {
		sc.keys = minheap.Push(sc.keys, k, after)
	} else {
		sc.keys = append(sc.keys, k)
	}
}

// bound is what the walk is told after every entry: nothing farther
// than the worst key kept can matter once the heap is full. A key at
// exactly that distance can still win on its id, which is why the index
// skips only what lies strictly beyond. Until then the index's own
// reach bounds the walk.
func (sc *scratch) bound() float64 {
	if n := sc.opts.MaxResults; n > 0 && len(sc.keys) == n {
		return sc.keys[0].dist
	}
	return math.Inf(1)
}

// offerEntry is steps 2+3 for one entry the index handed over:
// coverage filter, ranking key. Entries from devices that declared their
// own optics are filtered with them; opts.Camera is the deployment
// default. One displacement serves the distance, the coverage test and
// a dropped entry's diagnosis.
func (sc *scratch) offerEntry(e *index.Entry) float64 {
	sc.candidates++
	q, tr, f := &sc.q, sc.tr, &e.Rep.FoV
	v := geo.Displacement(f.P, q.Center)
	d := v.Norm()
	cam := e.EffectiveCamera(sc.opts.Camera)
	c := f.CircleCoverage(cam, v, d, q.RadiusMeters)
	if c == fov.FacingAway && sc.opts.SkipOrientationFilter {
		c = fov.Covered
	}
	if c != fov.Covered {
		sc.drops[c]++
		if tr.WantsDropDetail() {
			tr.DropDetail(e.ID, c.Reason(), geo.AngleDiff(v.Bearing(), f.Theta),
				f.SectorDistance(cam, v, d)-q.RadiusMeters, d)
		}
		return sc.bound()
	}
	sc.ranked++
	sc.offer(d, e)
	return sc.bound()
}

// SearchCtx is Search threaded through context.Context: when ctx
// carries an obs.QueryTrace (see obs.WithTrace), the pipeline records
// into it the work it did — the index traversal cost, the entries the
// walk handed to the filter ("candidates"), the filter drops per reason
// (and, for the first obs.MaxDropDetails, how far each sector misses the
// query disc), the survivors ("ranked") and how many of them fell beyond
// the cut ("truncated"), the N-th result's distance once the top N
// filled — and two stage timings:
// "search" — the steered walk with the orientation filter and the
// bounded top-N inside it, since they are one loop — and "rank" —
// ordering and materialising the N results. Traced and untraced requests
// run the same loop: a candidate is read where the index hands it over
// and copied only if it enters the top N.
func SearchCtx(ctx context.Context, idx index.Index, q Query, opts Options) ([]Ranked, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Camera.Validate(); err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.q, sc.opts, sc.tr = q, opts, tr

	// Steps 1-3 as one walk: the index hands over every camera near
	// enough to cover the circle (within r plus its radius of view),
	// nearest first, and the N-th best distance so far tells it what it
	// need not find at all.
	st := tr.StartStage("search")
	nodes, scanned := idx.Visit(q.Center, q.RadiusMeters, opts.Camera.RadiusMeters, q.StartMillis, q.EndMillis, sc.visit)
	st.End()
	tr.AddIndexVisit(nodes, scanned)
	tr.SetCandidates(sc.candidates)
	for c := fov.TooFar; c < fov.NumCoverage; c++ {
		tr.CountDrops(c.Reason(), sc.drops[c])
	}
	tr.SetRanked(sc.ranked)
	tr.SetBound(sc.bound())

	// Step 4: the top N in rank order.
	st = tr.StartStage("rank")
	keys := sc.keys
	slices.SortFunc(keys, func(a, b rankKey) int {
		switch {
		case after(&a, &b):
			return 1
		case after(&b, &a):
			return -1
		}
		return 0
	})
	out := make([]Ranked, len(keys))
	for i := range keys {
		out[i] = Ranked{Entry: sc.entries[keys[i].at], DistanceMeters: keys[i].dist}
	}
	st.End()
	tr.SetReturned(len(out), sc.ranked-len(out))
	return out, nil
}

// SearchNearest answers the radius-free form of the request: the k
// segments closest to the point of interest that were recording during
// the window and actually cover the point — no empirical query radius
// has to be guessed, the alternative to step 1's radius table when the
// area type is unknown. It is the query at radius 0 with N = k: at
// radius 0 the circle-coverage test is the point-in-sector test, so one
// walk and one ranking (distance, then id) answer both forms. k <= 0 selects
// opts.MaxResults, and 20 when that is unset too.
func SearchNearest(idx index.Index, center geo.Point, startMillis, endMillis int64, k int, opts Options) ([]Ranked, error) {
	if k <= 0 {
		k = opts.MaxResults
	}
	if k <= 0 {
		k = 20
	}
	opts.MaxResults = k
	return Search(idx, Query{StartMillis: startMillis, EndMillis: endMillis, Center: center}, opts)
}
