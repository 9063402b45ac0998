package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

func postQuery(t *testing.T, url string, q query.Query, maxResults int) (QueryResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(QueryRequest{Query: q, MaxResults: maxResults})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return qr, resp
}

func TestExplainQueryReturnsFullTrace(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := geo.Offset(center, 180, 30)
	if _, err := s.Register(wire.Upload{
		Provider: "alice",
		Reps: []segment.Representative{
			rep(p, 0, 0, 5000),   // facing the center: a hit
			rep(p, 180, 0, 5000), // facing away: an orientation drop
		},
	}); err != nil {
		t.Fatal(err)
	}
	q := query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}

	// Without explain the trace stays out of the response body.
	plain, resp := postQuery(t, ts.URL+"/query", q, 10)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %s", resp.Status)
	}
	if plain.Trace != nil {
		t.Fatal("trace leaked into a non-explain response")
	}
	if plain.TraceID == "" {
		t.Fatal("response missing traceID")
	}

	qr, resp := postQuery(t, ts.URL+"/query?explain=1", q, 10)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %s", resp.Status)
	}
	tr := qr.Trace
	if tr == nil {
		t.Fatal("explain=1 returned no trace")
	}
	if tr.ID != qr.TraceID {
		t.Fatalf("trace id %q != response traceID %q", tr.ID, qr.TraceID)
	}
	if tr.NodesVisited <= 0 || tr.LeafEntriesScanned <= 0 {
		t.Fatalf("index counters empty: nodes=%d leafs=%d", tr.NodesVisited, tr.LeafEntriesScanned)
	}
	if tr.Candidates != 2 || tr.DropCounts[fov.MissOrientation] != 1 {
		t.Fatalf("filter accounting wrong: candidates=%d drops=%v", tr.Candidates, tr.DropCounts)
	}
	if len(qr.Results) != 1 {
		t.Fatalf("results = %+v, want the one covering segment", qr.Results)
	}
	var sum int64
	seen := map[string]bool{}
	for _, st := range tr.Stages {
		seen[st.Stage] = true
		sum += st.Nanos
	}
	for _, name := range []string{"search", "rank"} {
		if !seen[name] {
			t.Fatalf("stage %q missing: %+v", name, tr.Stages)
		}
	}
	if tr.TotalNanos <= 0 || sum > tr.TotalNanos {
		t.Fatalf("stage sum %d vs total %d", sum, tr.TotalNanos)
	}
	if tr.Query == "" || !strings.Contains(tr.Query, "r=10m") {
		t.Fatalf("trace query description %q", tr.Query)
	}
}

func TestDebugTracesEndpoints(t *testing.T) {
	s, err := New(Config{
		Camera:          fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		TraceSampleRate: 1, // keep every query
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}
	first, _ := postQuery(t, ts.URL+"/query", q, 10)
	postQuery(t, ts.URL+"/query", q, 10)

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %s", resp.Status)
	}
	var list TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 || list.Stats.Observed != 2 || list.Stats.KeptSampled != 2 {
		t.Fatalf("listing wrong: %d traces, stats %+v", len(list.Traces), list.Stats)
	}
	if list.SampleRate != 1 || list.SlowThresholdMillis != 100 {
		t.Fatalf("store config wrong in response: %+v", list)
	}
	// Newest first: the second query leads.
	if list.Traces[0].Seq <= list.Traces[1].Seq {
		t.Fatalf("not newest-first: seqs %d, %d", list.Traces[0].Seq, list.Traces[1].Seq)
	}

	one, err := http.Get(ts.URL + "/debug/traces/" + first.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	if one.StatusCode != http.StatusOK {
		t.Fatalf("trace by id status %s", one.Status)
	}
	var tr obs.QueryTrace
	if err := json.NewDecoder(one.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != first.TraceID || tr.Class != "sample" {
		t.Fatalf("trace = id %q class %q, want id %q class sample", tr.ID, tr.Class, first.TraceID)
	}

	missing, err := http.Get(ts.URL + "/debug/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id returned %s, want 404", missing.Status)
	}
}

// TestErroredTracesRetainedUnderConcurrentLoad drives invalid queries
// from many goroutines: every one must be answered 400 and every one's
// trace must be retained as an error, regardless of sampling.
func TestErroredTracesRetainedUnderConcurrentLoad(t *testing.T) {
	s, err := New(Config{
		Camera:          fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		TraceSampleRate: -1, // no ordinary sampling: retention below is errors only
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines, per = 8, 10
	bad := query.Query{StartMillis: 10, EndMillis: 5, Center: center, RadiusMeters: 10}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body, _ := json.Marshal(QueryRequest{Query: bad})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusBadRequest {
					errs <- fmt.Errorf("status %s, want 400", resp.Status)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Traces().Stats()
	if st.KeptError != goroutines*per {
		t.Fatalf("kept %d errored traces, want all %d", st.KeptError, goroutines*per)
	}
	for _, tr := range s.Traces().Traces() {
		if tr.Class != "error" || tr.Err == "" {
			t.Fatalf("retained trace %q class=%q err=%q, want error", tr.ID, tr.Class, tr.Err)
		}
	}
}

func TestSlowQueryLogAndCounter(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	s, err := New(Config{
		Camera:             fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Logger:             logger,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		TraceSampleRate:    -1,
		Registry:           obs.NewRegistry(), // counted from zero on every run
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}
	qr, resp := postQuery(t, ts.URL+"/query", q, 10)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %s", resp.Status)
	}

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query log line in:\n%s", logged)
	}
	if !strings.Contains(logged, "traceID="+qr.TraceID) {
		t.Fatalf("slow log missing traceID %q:\n%s", qr.TraceID, logged)
	}
	for _, key := range []string{"totalMicros=", "stages=", "nodesVisited=", "candidates="} {
		if !strings.Contains(logged, key) {
			t.Fatalf("slow log missing %q:\n%s", key, logged)
		}
	}
	if got := s.Registry().Counter("fovr_slow_queries_total").Value(); got != 1 {
		t.Fatalf("fovr_slow_queries_total = %d, want 1", got)
	}
	if st := s.Traces().Stats(); st.KeptSlow != 1 {
		t.Fatalf("slow trace not retained: %+v", st)
	}
	tr := s.Traces().Get(qr.TraceID)
	if tr == nil || tr.Class != "slow" {
		t.Fatalf("retained trace = %+v, want class slow", tr)
	}
}

// TestSlowNearestIsLoggedAndTraced: a /nearest runs the traced /query
// path, so a slow one is counted, logged with its walk's work, and
// retained with a trace that carries that work.
func TestSlowNearestIsLoggedAndTraced(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	s, err := New(Config{
		Camera:             fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Logger:             slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil)),
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		TraceSampleRate:    -1,
		Registry:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Facing north from 30 m south: it covers the center.
	if _, err := s.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{rep(geo.Offset(center, 180, 30), 0, 0, 5000)}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(NearestRequest{Center: center, EndMillis: 5000, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/nearest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil || len(nr.Results) != 1 {
		t.Fatalf("status %s, %d results, err %v; want 1 result", resp.Status, len(nr.Results), err)
	}
	if got := s.Registry().Counter("fovr_slow_queries_total").Value(); got != 1 {
		t.Fatalf("fovr_slow_queries_total = %d, want 1", got)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	for _, key := range []string{"slow query", "traceID=" + nr.TraceID, "nodesVisited=1", "candidates=1"} {
		if !strings.Contains(logged, key) {
			t.Fatalf("slow log missing %q:\n%s", key, logged)
		}
	}
	tr := s.Traces().Get(nr.TraceID)
	if tr == nil || tr.Class != "slow" || tr.NodesVisited == 0 || tr.Candidates != 1 {
		t.Fatalf("retained trace = %+v, want class slow with the walk's nodes and 1 candidate", tr)
	}
}

// TestTraceDisabledConfig checks the negative-value escape hatches:
// with sampling and slow detection off, ordinary queries leave nothing
// in the store.
func TestTraceDisabledConfig(t *testing.T) {
	s, err := New(Config{
		Camera:             fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		SlowQueryThreshold: -1,
		TraceSampleRate:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}
	for i := 0; i < 5; i++ {
		postQuery(t, ts.URL+"/query", q, 10)
	}
	if n := s.Traces().Len(); n != 0 {
		t.Fatalf("store retained %d traces with retention disabled", n)
	}
	if st := s.Traces().Stats(); st.Observed != 5 {
		t.Fatalf("observed %d, want 5", st.Observed)
	}
}

// lockedWriter serializes writes so the handler goroutines and the test
// can share one buffer under -race.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
