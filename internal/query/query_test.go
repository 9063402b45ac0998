package query

import (
	"math/rand"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/segment"
)

var (
	cam    = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
	center = geo.Point{Lat: 40.0, Lng: 116.3}
)

func entry(id uint64, p geo.Point, theta float64, ts, te int64) index.Entry {
	return index.Entry{
		ID:       id,
		Provider: "test",
		Rep: segment.Representative{
			FoV:         fov.FoV{P: p, Theta: theta},
			StartMillis: ts,
			EndMillis:   te,
		},
	}
}

func newIndex(t *testing.T, entries ...index.Entry) *index.RTree {
	t.Helper()
	idx := index.NewRTree()
	for _, e := range entries {
		if err := idx.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

func TestQueryValidate(t *testing.T) {
	good := Query{StartMillis: 0, EndMillis: 100, Center: center, RadiusMeters: 20}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []Query{
		{StartMillis: 100, EndMillis: 0, Center: center, RadiusMeters: 20},
		{EndMillis: 100, Center: geo.Point{Lat: 99, Lng: 0}, RadiusMeters: 20},
		{EndMillis: 100, Center: center, RadiusMeters: -5},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

func TestEmpiricalRadius(t *testing.T) {
	cases := []struct {
		a    AreaType
		want float64
		name string
	}{
		{Residential, 20, "residential"},
		{Urban, 50, "urban"},
		{Highway, 100, "highway"},
		{AreaType(99), 20, ""},
	}
	for _, c := range cases {
		if got := c.a.EmpiricalRadius(); got != c.want {
			t.Errorf("EmpiricalRadius(%v) = %v, want %v", c.a, got, c.want)
		}
		if c.name != "" && c.a.String() != c.name {
			t.Errorf("String(%d) = %q, want %q", int(c.a), c.a.String(), c.name)
		}
	}
}

func TestOrientationFilterExcludesImproperDirection(t *testing.T) {
	// The Merkel example: a camera in the first row filming the
	// grandstand (facing away from the pitch) must not match a query for
	// the pitch, while a camera at the same spot facing the pitch does.
	pitchSide := geo.Offset(center, 0, 50)           // 50 m north of the query point
	facingQuery := entry(1, pitchSide, 180, 0, 1000) // looking south, at us
	facingAway := entry(2, pitchSide, 0, 0, 1000)    // looking north, away
	idx := newIndex(t, facingQuery, facingAway)

	q := Query{StartMillis: 0, EndMillis: 1000, Center: center, RadiusMeters: 10}
	got, err := Search(idx, q, Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entry.ID != 1 {
		t.Fatalf("got %+v, want only entry 1", got)
	}

	// With the ablation switch both come back.
	got, err = Search(idx, q, Options{Camera: cam, SkipOrientationFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ablation: got %d results, want 2", len(got))
	}
}

func TestRankedByDistance(t *testing.T) {
	// Three cameras south of the query point at increasing distance, all
	// facing north (toward the query point).
	var entries []index.Entry
	for i, d := range []float64{80, 20, 50} {
		p := geo.Offset(center, 180, d)
		entries = append(entries, entry(uint64(i+1), p, 0, 0, 1000))
	}
	idx := newIndex(t, entries...)
	got, err := Search(idx, Query{EndMillis: 1000, Center: center, RadiusMeters: 5}, Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	wantOrder := []uint64{2, 3, 1} // 20 m, 50 m, 80 m
	for i, w := range wantOrder {
		if got[i].Entry.ID != w {
			t.Fatalf("rank %d = id %d (%.1f m), want id %d", i, got[i].Entry.ID, got[i].DistanceMeters, w)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].DistanceMeters < got[i-1].DistanceMeters {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestTopN(t *testing.T) {
	var entries []index.Entry
	for i := 0; i < 20; i++ {
		p := geo.Offset(center, 180, 10+float64(i)*3)
		entries = append(entries, entry(uint64(i+1), p, 0, 0, 1000))
	}
	idx := newIndex(t, entries...)
	got, err := Search(idx, Query{EndMillis: 1000, Center: center, RadiusMeters: 5},
		Options{Camera: cam, MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
	for i, r := range got {
		if r.Entry.ID != uint64(i+1) {
			t.Fatalf("rank %d = id %d, want %d", i, r.Entry.ID, i+1)
		}
	}
}

func TestTimeWindowFiltering(t *testing.T) {
	p := geo.Offset(center, 180, 30)
	idx := newIndex(t,
		entry(1, p, 0, 0, 1000),
		entry(2, p, 0, 5000, 6000),
	)
	got, err := Search(idx, Query{StartMillis: 4000, EndMillis: 7000, Center: center, RadiusMeters: 5},
		Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entry.ID != 2 {
		t.Fatalf("got %+v, want only entry 2", got)
	}
}

func TestPaddedRectCatchesOutsideCameras(t *testing.T) {
	// A camera standing 90 m from the query center — far outside the
	// 10 m query circle but within its 100 m radius of view, facing the
	// center — must be found even though its *position* is outside the
	// query circle: the reach is r + R.
	p := geo.Offset(center, 90, 90) // 90 m east, facing west
	idx := newIndex(t, entry(1, p, 270, 0, 1000))
	got, err := Search(idx, Query{EndMillis: 1000, Center: center, RadiusMeters: 10},
		Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("distant-but-covering camera missed: %+v", got)
	}
	// A camera beyond R + r must not be found.
	far := geo.Offset(center, 90, 130)
	idx2 := newIndex(t, entry(1, far, 270, 0, 1000))
	got, err = Search(idx2, Query{EndMillis: 1000, Center: center, RadiusMeters: 10},
		Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("camera beyond visual range returned: %+v", got)
	}
}

func TestSearchInvalidInputs(t *testing.T) {
	idx := newIndex(t)
	if _, err := Search(idx, Query{StartMillis: 10, EndMillis: 0, Center: center}, Options{Camera: cam}); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if _, err := Search(idx, Query{EndMillis: 10, Center: center}, Options{Camera: fov.Camera{}}); err == nil {
		t.Fatal("invalid camera accepted")
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := newIndex(t)
	got, err := Search(idx, Query{EndMillis: 1000, Center: center, RadiusMeters: 20}, Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty index returned %d results", len(got))
	}
}

func TestRTreeAndLinearReturnSameRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rt := newIndex(t)
	lin := index.NewLinear()
	for i := 0; i < 2000; i++ {
		p := geo.Offset(center, rng.Float64()*360, rng.Float64()*2000)
		e := entry(uint64(i), p, rng.Float64()*360, int64(rng.Intn(100000)), int64(100000+rng.Intn(100000)))
		if err := rt.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := lin.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 25; trial++ {
		q := Query{
			StartMillis:  int64(rng.Intn(150000)),
			EndMillis:    int64(150000 + rng.Intn(50000)),
			Center:       geo.Offset(center, rng.Float64()*360, rng.Float64()*2000),
			RadiusMeters: 20,
		}
		opts := Options{Camera: cam, MaxResults: 10}
		a, err := Search(rt, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Search(lin, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: rtree %d results, linear %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Entry.ID != b[i].Entry.ID {
				t.Fatalf("trial %d rank %d: id %d vs %d", trial, i, a[i].Entry.ID, b[i].Entry.ID)
			}
		}
	}
}

func TestSearchNearest(t *testing.T) {
	// Cameras at several distances and directions; only covering ones
	// count, nearest first, no radius needed.
	var entries []index.Entry
	dists := []float64{150, 40, 90, 60}
	for i, d := range dists {
		p := geo.Offset(center, 180, d)
		entries = append(entries, entry(uint64(i+1), p, 0, 0, 1000)) // facing the center
	}
	entries = append(entries, entry(99, geo.Offset(center, 180, 10), 180, 0, 1000)) // nearest but facing away
	idx := newIndex(t, entries...)

	got, err := SearchNearest(idx, center, 0, 1000, 3, Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	wantOrder := []uint64{2, 4, 3} // 40, 60, 90 m; 150 m is beyond R, 99 faces away
	for i, w := range wantOrder {
		if got[i].Entry.ID != w {
			t.Fatalf("rank %d = id %d (%.1fm), want %d", i, got[i].Entry.ID, got[i].DistanceMeters, w)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].DistanceMeters < got[i-1].DistanceMeters {
			t.Fatal("not sorted by distance")
		}
	}
	// Time filter applies.
	got, err = SearchNearest(idx, center, 5000, 9000, 3, Options{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("out-of-window results: %d", len(got))
	}
	// Skip-orientation returns the facing-away camera first.
	got, err = SearchNearest(idx, center, 0, 1000, 1, Options{Camera: cam, SkipOrientationFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entry.ID != 99 {
		t.Fatalf("ablation nearest = %+v, want id 99", got)
	}
}

func TestSearchNearestValidation(t *testing.T) {
	idx := newIndex(t)
	if _, err := SearchNearest(idx, center, 10, 0, 3, Options{Camera: cam}); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if _, err := SearchNearest(idx, geo.Point{Lat: 95}, 0, 10, 3, Options{Camera: cam}); err == nil {
		t.Fatal("invalid center accepted")
	}
	if _, err := SearchNearest(idx, center, 0, 10, 3, Options{}); err == nil {
		t.Fatal("invalid camera accepted")
	}
	got, err := SearchNearest(idx, center, 0, 10, 0, Options{Camera: cam})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty index: %v %v", got, err)
	}
}
