package query

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
)

// baselineSearch is the pipeline as it stood before the zero-copy read
// kernels and the steered walk, kept as the reference: collect every
// candidate in the box by value, run the explaining coverage test on
// each, sort.Slice all survivors by (distance, id), cut to MaxResults.
// It records what the old traced loop recorded — the whole box as
// candidates — so the equivalence suite can hold SearchCtx to the same
// answers and bound its trace.
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

// equivalenceCorpus scatters n cameras within 400 m of origin. One in
// four stands on one of five shared spots (so equal distances occur,
// also across the top-N cut, among cameras whose start times put them in
// different leaves) and one in five declares its own optics.
func equivalenceCorpus(rng *rand.Rand, origin geo.Point, n int) []index.Entry {
	entries := make([]index.Entry, n)
	for i := range entries {
		p := geo.Offset(origin, rng.Float64()*360, rng.Float64()*400)
		if rng.Intn(4) == 0 {
			p = geo.Offset(origin, float64(rng.Intn(5))*72, 60)
		}
		for !p.Valid() { // a scatter around a near-polar origin can cross the pole
			p = geo.Offset(origin, rng.Float64()*360, rng.Float64()*400)
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

// equivalenceKinds builds one index of every kind over the same entries.
func equivalenceKinds(t *testing.T, entries []index.Entry) map[string]index.Index {
	t.Helper()
	grid, err := index.NewGrid(150)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]index.Index{
		"rtree": newIndex(t), "linear": index.NewLinear(), "grid": grid,
	}
	for name, idx := range kinds {
		for _, e := range entries {
			if err := idx.Insert(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	return kinds
}

// sameAsReference holds one SearchCtx answer to the reference:
// byte-equal results, traced and untraced, and a trace that accounts for
// the work done. The steered walk hands the filter no more than the box
// holds, every entry it hands over is dropped or ranked, and every
// ranked one is returned or truncated; when the bound never engaged (no
// N, or fewer than N survivors) the trace is the reference's exactly,
// the drop records compared as a set because the walk's order is its
// own.
func sameAsReference(t *testing.T, name string, idx index.Index, q Query, opts Options) {
	t.Helper()
	want, wantTr := baselineSearch(idx, q, opts)
	tr := obs.NewQueryTrace("new")
	got, err := SearchCtx(obs.WithTrace(context.Background(), tr), idx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v: results differ\n got %s\nwant %s", name, q, gotJSON, wantJSON)
	}
	if tr.Candidates != tr.DropsTotal+tr.Ranked || tr.Ranked != tr.Returned+tr.Truncated ||
		tr.Candidates > wantTr.Candidates || tr.Returned != wantTr.Returned {
		t.Fatalf("%s %+v: trace does not add up\n got %+v\nwant %+v", name, q, tr, wantTr)
	}
	if opts.MaxResults <= 0 || wantTr.Ranked < opts.MaxResults {
		byID := func(a, b obs.TraceDrop) int { return cmp.Compare(a.EntryID, b.EntryID) }
		slices.SortFunc(tr.Drops, byID)
		slices.SortFunc(wantTr.Drops, byID)
		if tr.Candidates != wantTr.Candidates || tr.Ranked != wantTr.Ranked ||
			tr.Truncated != wantTr.Truncated || tr.DropsTotal != wantTr.DropsTotal ||
			tr.BoundMeters != 0 ||
			!reflect.DeepEqual(tr.DropCounts, wantTr.DropCounts) ||
			len(tr.Drops) != len(wantTr.Drops) ||
			(wantTr.DropsTotal <= obs.MaxDropDetails && !reflect.DeepEqual(tr.Drops, wantTr.Drops)) {
			t.Fatalf("%s %+v: the bound never engaged, yet the trace differs\n got %+v\nwant %+v", name, q, tr, wantTr)
		}
	}
	untraced, err := Search(idx, q, opts)
	if err != nil || !reflect.DeepEqual(untraced, got) {
		t.Fatalf("%s %+v: untraced answer differs from traced (%v)", name, q, err)
	}
}

// checkEquivalence builds every index kind over the same corpus around
// origin and holds SearchCtx to the reference on each.
func checkEquivalence(t *testing.T, seed int64, n, maxResults int, skipFilter bool, origin geo.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kinds := equivalenceKinds(t, equivalenceCorpus(rng, origin, n))
	opts := Options{Camera: cam, MaxResults: maxResults, SkipOrientationFilter: skipFilter}
	for trial := 0; trial < 6; trial++ {
		start := int64(rng.Intn(120_000))
		q := Query{
			StartMillis:  start,
			EndMillis:    start + int64(rng.Intn(80_000)),
			Center:       geo.Offset(origin, rng.Float64()*360, rng.Float64()*100),
			RadiusMeters: rng.Float64() * 60,
		}
		if trial == 0 || !q.Center.Valid() {
			q.Center = origin // every shared spot at exactly the same distance
		}
		for name, idx := range kinds {
			sameAsReference(t, fmt.Sprintf("%s seed %d trial %d", name, seed, trial), idx, q, opts)
		}
	}
}

// FuzzSearchEquivalence holds the steered pipeline to the reference on
// generated corpora. The seeds cover MaxResults 0 (unlimited), cuts
// through the shared-spot ties (seeds 8 and 9, trial 0: the cut falls
// inside a tie whose members start up to 100 s apart and some of which
// carry their own optics), the filter
// ablation, corpora smaller than the cut, a near-polar city where the
// box is wider than 180° of longitude, one at |lat| > 80°, and one
// whose box spans the antimeridian.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(20), false, center.Lat, center.Lng)
	f.Add(int64(2), uint16(600), uint8(0), false, center.Lat, center.Lng)
	f.Add(int64(3), uint16(400), uint8(3), false, center.Lat, center.Lng)
	f.Add(int64(4), uint16(400), uint8(7), true, center.Lat, center.Lng)
	f.Add(int64(5), uint16(10), uint8(20), false, center.Lat, center.Lng)
	f.Add(int64(6), uint16(0), uint8(1), true, center.Lat, center.Lng)
	f.Add(int64(7), uint16(900), uint8(1), false, center.Lat, center.Lng)
	f.Add(int64(8), uint16(300), uint8(12), true, center.Lat, center.Lng)
	f.Add(int64(9), uint16(900), uint8(8), false, center.Lat, center.Lng)
	f.Add(int64(10), uint16(600), uint8(10), false, 84.5, 20.0)
	f.Add(int64(11), uint16(600), uint8(10), false, -89.9995, -40.0)
	f.Add(int64(12), uint16(600), uint8(10), false, 10.0, 179.9995)
	f.Add(int64(13), uint16(600), uint8(5), true, -33.0, -179.9995)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxResults uint8, skipFilter bool, lat, lng float64) {
		origin := geo.Point{Lat: lat, Lng: lng}
		if !origin.Valid() {
			t.Skip("not a position")
		}
		checkEquivalence(t, seed, int(n%1000), int(maxResults), skipFilter, origin)
	})
}

// TestTopNCutThroughTies pins the case the bounded heap and the bound it
// feeds back could get wrong: more equal-distance survivors than
// MaxResults, so the cut falls inside a tie and only the id order
// decides who stays. The walk must keep offering cameras at exactly the
// bound in whichever leaf they sit (their start times and durations
// spread them over the tree's time axis).
func TestTopNCutThroughTies(t *testing.T) {
	spot := geo.Offset(center, 180, 50)
	var entries []index.Entry
	for id := uint64(40); id >= 1; id-- { // inserted in descending id order
		start := int64(id%8) * 15_000
		end := start + 1000
		if id%5 == 0 {
			end = start + 50_000 // a long one, reaching across the others' starts
		}
		entries = append(entries, entry(id, spot, 0, start, end))
	}
	entries = append(entries, entry(41, geo.Offset(center, 180, 20), 0, 0, 1000)) // one nearer than the tie
	q := Query{EndMillis: 200_000, Center: center, RadiusMeters: 10}
	for name, idx := range equivalenceKinds(t, entries) {
		got, err := Search(idx, q, Options{Camera: cam, MaxResults: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || got[0].Entry.ID != 41 {
			t.Fatalf("%s: got %d results led by %d, want 5 led by 41", name, len(got), got[0].Entry.ID)
		}
		for i, r := range got[1:] {
			if r.Entry.ID != uint64(i+1) {
				t.Fatalf("%s: rank %d = id %d, want %d (ids break the tie)", name, i+1, r.Entry.ID, i+1)
			}
		}
		sameAsReference(t, name, idx, q, Options{Camera: cam, MaxResults: 5})
	}
}
