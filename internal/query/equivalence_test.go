package query

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
)

// baselineSearch is the pipeline as it stood before the zero-copy read
// kernels, kept as the reference: collect every candidate by value, run
// the explaining coverage test on each, sort.Slice all survivors by
// (distance, id), cut to MaxResults. It records what the old traced loop
// recorded, so the equivalence suite can hold SearchCtx to the same
// answers and the same trace.
func baselineSearch(idx index.Index, q Query, opts Options) ([]Ranked, *obs.QueryTrace) {
	tr := obs.NewQueryTrace("reference")
	rect := geo.RectAround(q.Center, q.RadiusMeters+opts.Camera.RadiusMeters)
	candidates := idx.Search(rect, q.StartMillis, q.EndMillis)
	tr.SetCandidates(len(candidates))
	out := make([]Ranked, 0, len(candidates))
	for _, e := range candidates {
		d := geo.Distance(e.Rep.FoV.P, q.Center)
		if !opts.SkipOrientationFilter {
			covered, miss := e.Rep.FoV.ExplainCoversCircle(e.EffectiveCamera(opts.Camera), q.Center, q.RadiusMeters)
			if !covered {
				tr.Drop(e.ID, miss.Reason, miss.AngleDeg, miss.LimitDeg, miss.DistanceMeters)
				continue
			}
		}
		out = append(out, Ranked{Entry: e, DistanceMeters: d})
	}
	tr.SetRanked(len(out))
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistanceMeters != out[j].DistanceMeters {
			return out[i].DistanceMeters < out[j].DistanceMeters
		}
		return out[i].Entry.ID < out[j].Entry.ID
	})
	truncated := 0
	if opts.MaxResults > 0 && len(out) > opts.MaxResults {
		truncated = len(out) - opts.MaxResults
		out = out[:opts.MaxResults]
	}
	tr.SetReturned(len(out), truncated)
	return out, tr
}

// equivalenceCorpus scatters n cameras within 400 m of the center. One
// in four stands on one of five shared spots (so equal distances occur,
// also across the top-N cut) and one in five declares its own optics.
func equivalenceCorpus(rng *rand.Rand, n int) []index.Entry {
	entries := make([]index.Entry, n)
	for i := range entries {
		p := geo.Offset(center, rng.Float64()*360, rng.Float64()*400)
		if rng.Intn(4) == 0 {
			p = geo.Offset(center, float64(rng.Intn(5))*72, 60)
		}
		start := int64(rng.Intn(100_000))
		e := entry(uint64(i+1), p, rng.Float64()*360, start, start+int64(rng.Intn(50_000)))
		if rng.Intn(5) == 0 {
			e.Camera = fov.Camera{HalfAngleDeg: 10 + rng.Float64()*60, RadiusMeters: 20 + rng.Float64()*80}
		}
		entries[i] = e
	}
	return entries
}

// checkEquivalence builds every index kind over the same corpus and
// holds SearchCtx to the reference on each: byte-equal results and the
// same trace counts and drop records.
func checkEquivalence(t *testing.T, seed int64, n, maxResults int, skipFilter bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := equivalenceCorpus(rng, n)
	sharded, err := index.NewSharded(index.ShardedOptions{WindowMillis: 20_000, SpatialShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cachedInner, err := index.NewSharded(index.ShardedOptions{WindowMillis: 20_000, SpatialShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := index.NewReadCache(cachedInner, index.ReadCacheOptions{MinCellHits: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := index.NewGrid(150)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]index.Index{
		"rtree": newIndex(t), "sharded": sharded, "cached": cached,
		"linear": index.NewLinear(), "grid": grid,
	}
	for name, idx := range kinds {
		for _, e := range entries {
			if err := idx.Insert(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	opts := Options{Camera: cam, MaxResults: maxResults, SkipOrientationFilter: skipFilter}
	for trial := 0; trial < 6; trial++ {
		start := int64(rng.Intn(120_000))
		q := Query{
			StartMillis:  start,
			EndMillis:    start + int64(rng.Intn(80_000)),
			Center:       geo.Offset(center, rng.Float64()*360, rng.Float64()*100),
			RadiusMeters: rng.Float64() * 60,
		}
		if trial == 0 {
			q.Center = center // every shared spot at exactly the same distance
		}
		for name, idx := range kinds {
			// Twice: the cached kind answers the second pass from its cache.
			for pass := 0; pass < 2; pass++ {
				want, wantTr := baselineSearch(idx, q, opts)
				tr := obs.NewQueryTrace("new")
				got, err := SearchCtx(obs.WithTrace(context.Background(), tr), idx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if string(gotJSON) != string(wantJSON) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d trial %d: results differ\n got %s\nwant %s", name, seed, trial, gotJSON, wantJSON)
				}
				if tr.Candidates != wantTr.Candidates || tr.Ranked != wantTr.Ranked ||
					tr.Returned != wantTr.Returned || tr.Truncated != wantTr.Truncated ||
					tr.DropsTotal != wantTr.DropsTotal ||
					!reflect.DeepEqual(tr.DropCounts, wantTr.DropCounts) ||
					!reflect.DeepEqual(tr.Drops, wantTr.Drops) {
					t.Fatalf("%s seed %d trial %d: trace differs\n got %+v\nwant %+v", name, seed, trial, tr, wantTr)
				}
				untraced, err := Search(idx, q, opts)
				if err != nil || !reflect.DeepEqual(untraced, got) {
					t.Fatalf("%s seed %d trial %d: untraced answer differs from traced (%v)", name, seed, trial, err)
				}
			}
		}
	}
}

// FuzzSearchEquivalence holds the zero-copy pipeline to the reference on
// generated corpora. The seeds cover MaxResults 0 (unlimited), a cut
// through the shared-spot ties, the filter ablation, and corpora smaller
// than the cut.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(20), false)
	f.Add(int64(2), uint16(600), uint8(0), false)
	f.Add(int64(3), uint16(400), uint8(3), false)
	f.Add(int64(4), uint16(400), uint8(7), true)
	f.Add(int64(5), uint16(10), uint8(20), false)
	f.Add(int64(6), uint16(0), uint8(1), true)
	f.Add(int64(7), uint16(900), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxResults uint8, skipFilter bool) {
		checkEquivalence(t, seed, int(n%1000), int(maxResults), skipFilter)
	})
}

// TestTopNCutThroughTies pins the case the bounded heap could get wrong:
// more equal-distance survivors than MaxResults, so the cut falls inside
// a tie and only the id order decides who stays.
func TestTopNCutThroughTies(t *testing.T) {
	spot := geo.Offset(center, 180, 50)
	var entries []index.Entry
	for id := uint64(40); id >= 1; id-- { // inserted in descending id order
		entries = append(entries, entry(id, spot, 0, 0, 1000))
	}
	idx := newIndex(t, entries...)
	got, err := Search(idx, Query{EndMillis: 1000, Center: center, RadiusMeters: 10}, Options{Camera: cam, MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
	for i, r := range got {
		if r.Entry.ID != uint64(i+1) {
			t.Fatalf("rank %d = id %d, want %d (ids break the tie)", i, r.Entry.ID, i+1)
		}
	}
}
