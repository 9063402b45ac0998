package query

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
)

// baselineSearch is the pipeline as it stood before the zero-copy read
// kernels and the steered walk, kept as the reference, and run over the
// corpus itself rather than an index: take every entry of the window
// near enough to cover the circle — within r + R of the center by
// geo.Distance, R its own camera's radius of view — run the coverage
// test on each, sort.Slice all survivors by (distance, id), cut to
// MaxResults. It records what the old traced loop recorded, with those
// entries for the box's as the candidates. entries must be on the grid,
// as every index holds them.
func baselineSearch(entries []index.Entry, q Query, opts Options) ([]Ranked, *obs.QueryTrace) {
	tr := obs.NewQueryTrace("reference")
	out := []Ranked{}
	candidates := 0
	for _, e := range entries {
		v := geo.Displacement(e.Rep.FoV.P, q.Center)
		d := v.Norm()
		cam := e.EffectiveCamera(opts.Camera)
		if e.Rep.EndMillis < q.StartMillis || e.Rep.StartMillis > q.EndMillis || d > q.RadiusMeters+cam.RadiusMeters {
			continue
		}
		candidates++
		c := e.Rep.FoV.CircleCoverage(cam, v, d, q.RadiusMeters)
		if c == fov.TooFar || c == fov.FacingAway && !opts.SkipOrientationFilter {
			tr.CountDrops(c.Reason(), 1)
			tr.DropDetail(e.ID, c.Reason(), geo.AngleDiff(v.Bearing(), e.Rep.FoV.Theta), e.Rep.FoV.SectorDistance(cam, v, d)-q.RadiusMeters, d)
			continue
		}
		out = append(out, Ranked{Entry: e, DistanceMeters: d})
	}
	tr.SetCandidates(candidates)
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

// onGrid returns the entries as every index holds them.
func onGrid(entries []index.Entry) []index.Entry {
	out := make([]index.Entry, len(entries))
	for i, e := range entries {
		out[i] = e.OnGrid()
	}
	return out
}

// equivalenceCorpus scatters n cameras within 400 m of origin. One in
// four stands on one of five shared spots (so equal distances occur,
// also across the top-N cut, among cameras whose start times put them in
// different leaves) and one in five declares its own optics, with a
// radius of view of up to maxRadius metres (at least 300, three times
// the deployment camera's 100 m).
func equivalenceCorpus(rng *rand.Rand, origin geo.Point, n int, maxRadius float64) []index.Entry {
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
			e.Camera = fov.Camera{HalfAngleDeg: 10 + rng.Float64()*60, RadiusMeters: 20 + rng.Float64()*(maxRadius-20)}
		}
		entries[i] = e
	}
	return entries
}

// equivalenceKinds builds one index of every kind over the same
// entries: an RTree of base 0 by Insert, one of the deployment camera's
// base by BulkLoadRTree, as a server boots, and Linear.
func equivalenceKinds(t *testing.T, entries []index.Entry) map[string]index.Index {
	t.Helper()
	deployed, err := index.BulkLoadRTree(cam.RadiusMeters, len(entries), func(add func(*index.Entry) error) error {
		for i := range entries {
			if err := add(&entries[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lin := index.NewLinear()
	if err := lin.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	return map[string]index.Index{"rtree": newIndex(t, entries...), "rtree deployed": deployed, "linear": lin}
}

// sameAsReference holds one SearchCtx answer over idx, which holds
// entries, to the reference: byte-equal results, traced and untraced,
// and a trace that accounts for the work done. Every entry the walk
// hands over is dropped or ranked, and every ranked one is returned or
// truncated. When the bound never engaged (no N, or fewer than N
// survivors) the trace is the reference's but for the entries beyond
// their own reach an index may also hand over, each one more candidate
// dropped for distance: none for Linear, which hands over exactly the
// reference's; for RTree those within the deployment's reach whose own
// camera sees less, and the steering's slack — it hands over every entry
// of the window within r + max(D, R) of the center, D the deployment's
// radius of view and R the entry's own (D for none), and none beyond by
// steerDistance. The drop records of the entries within their reach are
// compared as a set, because the walk's order is its own.
func sameAsReference(t *testing.T, name string, idx index.Index, entries []index.Entry, q Query, opts Options) {
	t.Helper()
	want, wantTr := baselineSearch(entries, q, opts)
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
	if tr.Candidates != tr.DropsTotal+tr.Ranked || tr.Ranked != tr.Returned+tr.Truncated || tr.Returned != wantTr.Returned {
		t.Fatalf("%s %+v: trace does not add up\n got %+v\nwant %+v", name, q, tr, wantTr)
	}
	if opts.MaxResults <= 0 || wantTr.Ranked < opts.MaxResults {
		beyond := tr.Candidates - wantTr.Candidates
		if lo, hi := withinOwnReach(entries, q, opts.Camera, geo.Distance), withinOwnReach(entries, q, opts.Camera, steerDistance); strings.HasPrefix(name, "rtree") && (tr.Candidates < lo || tr.Candidates > hi) {
			t.Fatalf("%s %+v: the walk handed over %d entries, want the %d within their own reach up to the %d within it by the steering",
				name, q, tr.Candidates, lo, hi)
		}
		var within []obs.TraceDrop
		for _, d := range tr.Drops {
			if e := entryByID(entries, d.EntryID); d.DistanceMeters <= q.RadiusMeters+e.EffectiveCamera(opts.Camera).RadiusMeters {
				within = append(within, d)
			}
		}
		byID := func(a, b obs.TraceDrop) int { return cmp.Compare(a.EntryID, b.EntryID) }
		slices.SortFunc(within, byID)
		slices.SortFunc(wantTr.Drops, byID)
		if beyond < 0 || strings.HasPrefix(name, "linear") && beyond != 0 || tr.Ranked != wantTr.Ranked || tr.Truncated != wantTr.Truncated || tr.BoundMeters != 0 ||
			tr.DropCounts[fov.MissDistance] != wantTr.DropCounts[fov.MissDistance]+beyond ||
			tr.DropCounts[fov.MissOrientation] != wantTr.DropCounts[fov.MissOrientation] ||
			(tr.DropsTotal <= obs.MaxDropDetails && !slices.Equal(within, wantTr.Drops)) {
			t.Fatalf("%s %+v: the bound never engaged, yet the trace differs\n got %+v\nwant %+v", name, q, tr, wantTr)
		}
	}
	untraced, err := Search(idx, q, opts)
	if err != nil || !reflect.DeepEqual(untraced, got) {
		t.Fatalf("%s %+v: untraced answer differs from traced (%v)", name, q, err)
	}
}

// withinOwnReach counts the entries of q's window within their own reach
// of its center by dist: r + max(D, R), D the deployment camera's radius
// of view and R the entry's own.
func withinOwnReach(entries []index.Entry, q Query, deploy fov.Camera, dist func(p, c geo.Point) float64) int {
	n := 0
	for _, e := range entries {
		if e.Rep.EndMillis >= q.StartMillis && e.Rep.StartMillis <= q.EndMillis &&
			dist(e.Rep.FoV.P, q.Center) <= q.RadiusMeters+max(deploy.RadiusMeters, e.Camera.RadiusMeters) {
			n++
		}
	}
	return n
}

// steerDistance returns the distance the walk's steering can tell p
// from a question's center c by, at most geo.Distance, which bounds what
// the walk hands over. The slack is the steering's: it weighs longitude
// by the cosine at the pole-ward edge of the reach box rather than the
// mid-latitude's, for the reach of the position's own distance (a
// position the walk hands over lies within that box), and by nothing
// where that box holds a pole or all longitudes or the position lies
// across the antimeridian, where the walk tests latitude alone. A
// relative 1e-9 covers the steering's own shrink (boundSlack).
func steerDistance(p, c geo.Point) float64 {
	v := geo.Displacement(p, c)
	reach := v.Norm()
	edge := math.Abs(c.Lat) + reach/geo.MetersPerDegree
	cos, east := math.Cos(edge*math.Pi/180), 0.0
	if dLng := math.Abs(p.Lng - c.Lng); edge < 90 && dLng <= 180 && reach/(geo.MetersPerDegree*cos) < 180 {
		east = geo.MetersPerDegree * cos * dLng
	}
	return math.Hypot(east, v.North) * (1 - 1e-9)
}

// entryByID returns the entry of entries with the id.
func entryByID(entries []index.Entry, id uint64) *index.Entry {
	i := slices.IndexFunc(entries, func(e index.Entry) bool { return e.ID == id })
	return &entries[i]
}

// checkEquivalence builds every index kind over the same corpus around
// origin and holds SearchCtx to the reference on each. Devices declare
// radii of view up to wide times the deployment's (three at the least);
// past three, one more device, 300 m from origin and facing it, sees
// 100 km, past the excess a leaf slot can hold (a whole-globe key).
func checkEquivalence(t *testing.T, seed int64, n, maxResults int, skipFilter bool, origin geo.Point, wide int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	corpus := equivalenceCorpus(rng, origin, n, cam.RadiusMeters*float64(max(wide, 3)))
	if p := geo.Offset(origin, 45, 300); wide > 3 && p.Valid() {
		far := entry(uint64(n+1), p, 225, 0, 200_000)
		far.Camera = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100_000}
		corpus = append(corpus, far)
	}
	kinds, held := equivalenceKinds(t, corpus), onGrid(corpus)
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
			sameAsReference(t, fmt.Sprintf("%s seed %d trial %d", name, seed, trial), idx, held, q, opts)
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
// whose box spans the antimeridian. The last five declare radii of
// view up to 10 and 50 times the deployment's, with one device past
// the excess a slot holds: in a city, at the antimeridian (both ways)
// and at a pole, so wide keys split at the antimeridian, meet both of
// a walk's boxes and hold a pole.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(20), false, center.Lat, center.Lng, uint8(0))
	f.Add(int64(2), uint16(600), uint8(0), false, center.Lat, center.Lng, uint8(0))
	f.Add(int64(3), uint16(400), uint8(3), false, center.Lat, center.Lng, uint8(0))
	f.Add(int64(4), uint16(400), uint8(7), true, center.Lat, center.Lng, uint8(0))
	f.Add(int64(5), uint16(10), uint8(20), false, center.Lat, center.Lng, uint8(0))
	f.Add(int64(6), uint16(0), uint8(1), true, center.Lat, center.Lng, uint8(0))
	f.Add(int64(7), uint16(900), uint8(1), false, center.Lat, center.Lng, uint8(0))
	f.Add(int64(8), uint16(300), uint8(12), true, center.Lat, center.Lng, uint8(0))
	f.Add(int64(9), uint16(900), uint8(8), false, center.Lat, center.Lng, uint8(0))
	f.Add(int64(10), uint16(600), uint8(10), false, 84.5, 20.0, uint8(0))
	f.Add(int64(11), uint16(600), uint8(10), false, -89.9995, -40.0, uint8(0))
	f.Add(int64(12), uint16(600), uint8(10), false, 10.0, 179.9995, uint8(0))
	f.Add(int64(13), uint16(600), uint8(5), true, -33.0, -179.9995, uint8(0))
	f.Add(int64(14), uint16(600), uint8(0), false, center.Lat, center.Lng, uint8(50))
	f.Add(int64(15), uint16(400), uint8(10), false, center.Lat, center.Lng, uint8(10))
	f.Add(int64(16), uint16(600), uint8(10), false, 10.0, 179.9995, uint8(50))
	f.Add(int64(17), uint16(600), uint8(0), true, -33.0, -179.9995, uint8(50))
	f.Add(int64(18), uint16(600), uint8(10), false, -89.9995, -40.0, uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxResults uint8, skipFilter bool, lat, lng float64, wide uint8) {
		origin := geo.Point{Lat: lat, Lng: lng}
		if !origin.Valid() {
			t.Skip("not a position")
		}
		checkEquivalence(t, seed, int(n%1000), int(maxResults), skipFilter, origin, int(wide%51))
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
		sameAsReference(t, name, idx, onGrid(entries), q, Options{Camera: cam, MaxResults: 5})
	}
}
