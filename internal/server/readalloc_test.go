package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

// crowd registers n cameras within spread meters of at, all recording
// during [0, 1000], and returns at.
func crowd(t *testing.T, s *Server, at geo.Point, n int, spread float64, seed int64) geo.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for left := n; left > 0; {
		reps := make([]segment.Representative, min(left, 200))
		for i := range reps {
			reps[i] = rep(geo.Offset(at, rng.Float64()*360, rng.Float64()*spread), rng.Float64()*360, 0, 1000)
		}
		if _, err := s.Register(wire.Upload{Provider: "crowd", Reps: reps}); err != nil {
			t.Fatal(err)
		}
		left -= len(reps)
	}
	return at
}

// TestReadPathAllocsIndependentOfCandidates guards the path production
// actually runs: Server.QueryCtx with a trace attached (the handler
// attaches one to every request) and Server.Nearest. A question over a
// crowd of thousands must allocate exactly what a question over a few
// dozen does — the trace, its bounded drop records, and the N results —
// because every candidate is rebuilt in one pooled walker buffer and
// copied only if it enters the top N. The crowd
// is sized by what the query box holds (Index().Search): the trace's own
// candidate count is small either way now that the top-N bound steers
// the walk.
func TestReadPathAllocsIndependentOfCandidates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	s := newServer(t)
	few := crowd(t, s, geo.Offset(center, 90, 5_000), 300, 90, 1) // enough to fill the trace's drop records
	many := crowd(t, s, geo.Offset(center, 270, 5_000), 4_000, 90, 2)

	queryAllocs := func(at geo.Point) (allocs float64, inBox int) {
		q := query.Query{EndMillis: 1000, Center: at, RadiusMeters: 50}
		allocs = testing.AllocsPerRun(100, func() {
			tr := obs.NewQueryTrace("t")
			got, err := s.QueryCtx(obs.WithTrace(context.Background(), tr), q, 20)
			if err != nil || len(got) != 20 {
				t.Fatalf("got %d results, err %v", len(got), err)
			}
		})
		box := geo.RectAround(at, q.RadiusMeters+s.cfg.Camera.RadiusMeters)
		return allocs, len(s.Index().Search(box, q.StartMillis, q.EndMillis))
	}
	fewAllocs, fewCands := queryAllocs(few)
	manyAllocs, manyCands := queryAllocs(many)
	if fewCands > 400 || manyCands < 1000 {
		t.Fatalf("candidates %d / %d: want a small and a >= 1000-candidate question", fewCands, manyCands)
	}
	t.Logf("QueryCtx traced: %.0f allocs/op at %d candidates, %.0f at %d", fewAllocs, fewCands, manyAllocs, manyCands)
	const queryPin = 14
	if manyAllocs != fewAllocs || manyAllocs > queryPin {
		t.Fatalf("QueryCtx allocates %.0f/op at %d candidates and %.0f/op at %d; want equal and <= %d",
			fewAllocs, fewCands, manyAllocs, manyCands, queryPin)
	}

	nearestAllocs := func(at geo.Point) float64 {
		return testing.AllocsPerRun(100, func() {
			got, err := s.Nearest(at, 0, 1000, 20)
			if err != nil || len(got) == 0 {
				t.Fatalf("got %d results, err %v", len(got), err)
			}
		})
	}
	fewN, manyN := nearestAllocs(few), nearestAllocs(many)
	t.Logf("Nearest: %.0f allocs/op over the small crowd, %.0f over the large", fewN, manyN)
	const nearestPin = 4
	if manyN != fewN || manyN > nearestPin {
		t.Fatalf("Nearest allocates %.0f/op over %d cameras and %.0f/op over %d; want equal and <= %d",
			fewN, fewCands, manyN, manyCands, nearestPin)
	}
}

// nullWriter is the cheapest http.ResponseWriter: the pin below counts
// the handler's allocations, not a recorder's.
type nullWriter struct{ hdr http.Header }

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// TestQueryHandlerAllocs pins what one POST /query costs through
// Handler() with no logger configured — the trace, the results and a
// fixed handful for HTTP — net of building the request itself.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	s := newServer(t)
	at := crowd(t, s, geo.Offset(center, 90, 5_000), 300, 90, 1)
	body, err := AppendQueryRequest(nil, &QueryRequest{Query: query.Query{EndMillis: 1000, Center: at, RadiusMeters: 50}, MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			r, _ := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			h.ServeHTTP(&nullWriter{hdr: http.Header{}}, r)
		})
	}
	base := serve(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	got := serve(s.Handler()) - base
	t.Logf("POST /query: %.0f allocs/op net of the request", got)
	const pin = 12
	if got > pin {
		t.Fatalf("POST /query allocates %.0f/op, want <= %d", got, pin)
	}
}
