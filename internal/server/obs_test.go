package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/trace"
	"fovr/internal/wire"
)

// promValue extracts the value of the exactly-named sample from a
// Prometheus exposition, or fails the test.
func promValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in exposition:\n%s", name, exposition)
	return 0
}

// TestMetricsEndpoint drives the full pipeline in-process and asserts
// the acceptance surface of GET /metrics: per-endpoint request counters
// and latency histograms, the index entry gauge, R-tree node-visit
// counters, the segmentation ns/frame histogram, and byte counters —
// all in valid Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	// The default registry so the process-wide segmentation and client
	// metrics appear alongside the server's own.
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Run a real segmentation so fovr_segment_frame_seconds has data.
	samples, err := trace.Rotation(trace.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	results, err := segment.Split(segment.Config{
		Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Threshold: 0.5,
	}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no segments")
	}

	// Upload over HTTP, query over HTTP.
	body, err := wire.EncodeBinary(wire.Upload{
		Provider: "alice",
		Reps:     []segment.Representative{rep(geo.Offset(center, 180, 30), 0, 0, 5000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s", resp.Status)
	}
	qBody, _ := json.Marshal(QueryRequest{Query: query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}})
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	expo, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(expo)

	if v := promValue(t, out, `fovr_http_requests_total{endpoint="/upload",code="200"}`); v < 1 {
		t.Errorf("upload request counter = %v, want >= 1", v)
	}
	if v := promValue(t, out, `fovr_http_request_seconds_count{endpoint="/query"}`); v < 1 {
		t.Errorf("query latency histogram count = %v, want >= 1", v)
	}
	if v := promValue(t, out, "fovr_index_entries"); v != 1 {
		t.Errorf("index entries gauge = %v, want 1", v)
	}
	if v := promValue(t, out, "fovr_rtree_node_visits_total"); v < 1 {
		t.Errorf("node visits = %v, want >= 1", v)
	}
	if v := promValue(t, out, "fovr_segment_frame_seconds_count"); v < 1 {
		t.Errorf("segmentation histogram count = %v, want >= 1", v)
	}
	if v := promValue(t, out, "fovr_net_received_bytes_total"); v < float64(len(body)) {
		t.Errorf("received bytes = %v, want >= %d", v, len(body))
	}
	promValue(t, out, "fovr_net_sent_bytes_total")
	promValue(t, out, "fovr_upload_rollbacks_total")

	// Every line must be well-formed text format.
	lineRE := regexp.MustCompile(
		`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|` +
			`[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN))$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("healthz content-type = %q", got)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.State != obs.HealthOK {
		t.Fatalf("healthz state = %q, want ok:\n%+v", hz.State, hz)
	}
	if hz.UptimeSeconds < 0 || hz.Segments != 0 || hz.GoVersion == "" {
		t.Errorf("healthz basics: uptime %v, segments %d, goVersion %q",
			hz.UptimeSeconds, hz.Segments, hz.GoVersion)
	}
	components := map[string]obs.HealthState{}
	for _, c := range hz.Checks {
		components[c.Component] = c.State
	}
	for _, want := range []string{"store", "index"} {
		if st, ok := components[want]; !ok || st != obs.HealthOK {
			t.Errorf("component %q state = %q (present %v), want ok", want, st, ok)
		}
	}
}

// TestRuntimeMetricsExported pins the satellite contract: the
// runtime/metrics-backed gauges appear on /metrics with live values.
func TestRuntimeMetricsExported(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(expo)
	if v := promValue(t, out, "fovr_go_heap_bytes"); v <= 0 {
		t.Errorf("fovr_go_heap_bytes = %v, want > 0", v)
	}
	if v := promValue(t, out, "fovr_go_goroutines"); v < 1 {
		t.Errorf("fovr_go_goroutines = %v, want >= 1", v)
	}
	// GC may not have run yet; the gauge must exist and be non-negative.
	if v := promValue(t, out, "fovr_go_gc_pause_ns"); v < 0 {
		t.Errorf("fovr_go_gc_pause_ns = %v, want >= 0", v)
	}
}

// TestConcurrentTrafficMetricsConsistent hammers upload/query/stats
// concurrently (run with -race) and asserts the registry's request
// counters agree with the number of requests actually issued.
func TestConcurrentTrafficMetricsConsistent(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, err := wire.EncodeBinary(wire.Upload{
					Provider: fmt.Sprintf("p%02d", w),
					Reps: []segment.Representative{
						rep(geo.Offset(center, float64(w*37%360), 30), 0, int64(i*1000), int64(i*1000+500)),
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()

				qBody, _ := json.Marshal(QueryRequest{Query: query.Query{
					EndMillis: 100_000, Center: center, RadiusMeters: 10,
				}})
				resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()

				resp, err = http.Get(ts.URL + "/stats")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	total := workers * perWorker
	out := reg.Prometheus()
	if v := promValue(t, out, `fovr_http_requests_total{endpoint="/upload",code="200"}`); v != float64(total) {
		t.Errorf("upload counter = %v, want %d", v, total)
	}
	if v := promValue(t, out, `fovr_http_requests_total{endpoint="/query",code="200"}`); v != float64(total) {
		t.Errorf("query counter = %v, want %d", v, total)
	}
	if v := promValue(t, out, `fovr_http_requests_total{endpoint="/stats",code="200"}`); v != float64(total) {
		t.Errorf("stats counter = %v, want %d", v, total)
	}
	if v := promValue(t, out, `fovr_http_request_seconds_count{endpoint="/upload"}`); v != float64(total) {
		t.Errorf("upload histogram count = %v, want %d", v, total)
	}
	if v := promValue(t, out, "fovr_index_entries"); v != float64(total) {
		t.Errorf("index entries = %v, want %d", v, total)
	}
	if got := s.requests.Load(); got != int64(3*total) {
		t.Errorf("Stats.Requests = %d, want %d", got, 3*total)
	}

	// /stats agrees with the registry's one source of truth.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Segments != total {
		t.Errorf("stats segments = %d, want %d", st.Segments, total)
	}
	if st.BytesIn <= 0 || st.BytesOut <= 0 {
		t.Errorf("stats bytes in/out = %d/%d, want > 0", st.BytesIn, st.BytesOut)
	}
	if float64(st.BytesIn) != promValue(t, reg.Prometheus(), "fovr_net_received_bytes_total") {
		t.Error("stats bytesIn diverges from registry counter")
	}
}

// TestMetricsTrackActiveIndex is the regression test for the gauge
// wiring: the /metrics gauges must read the currently active index —
// including after FinishBootstrap swaps the index object out from under
// the closures registered at construction time. The subtest is named
// after the index every server builds.
func TestMetricsTrackActiveIndex(t *testing.T) {
	t.Run("rtree", testMetricsTrackActiveIndex)
}

func testMetricsTrackActiveIndex(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	uploadN(t, s, "alice", 25)

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	out := scrape()
	if v := promValue(t, out, "fovr_index_entries"); v != 25 {
		t.Fatalf("fovr_index_entries = %v, want 25", v)
	}
	if v := promValue(t, out, "fovr_index_height"); v < 1 {
		t.Fatalf("fovr_index_height = %v", v)
	}
	if v := promValue(t, out, "fovr_rtree_inserts_total"); v != 25 {
		t.Fatalf("fovr_rtree_inserts_total = %v, want 25", v)
	}

	// Swap the index through a bootstrap: gauges must follow the
	// replacement, not the construction-time object.
	base := s.Index().Entries()
	uploadN(t, s, "bob", 10) // diverge from the bootstrap's state
	if err := s.FinishBootstrap(store.ManifestSnapshot{}, base); err != nil {
		t.Fatal(err)
	}
	out = scrape()
	if v := promValue(t, out, "fovr_index_entries"); v != 25 {
		t.Fatalf("post-bootstrap fovr_index_entries = %v, want 25", v)
	}
	// The registry still scrapes clean after the swap.
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}
