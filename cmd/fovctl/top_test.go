package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fovr/internal/client"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

// TestTopFrameFromMetrics drives top's fetch+render path against a live
// server: the /query row's rate comes from the counter gain between two
// /metrics scrapes, and its p50/p99 are the server histogram's own
// Quantile (all /query requests fall inside the window).
func TestTopFrameFromMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := client.New(ts.URL)

	center := geo.Point{Lat: 40.0013, Lng: 116.326}
	if _, err := c.Upload(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		{StartMillis: 0, EndMillis: 1000},
	}}); err != nil {
		t.Fatal(err)
	}
	prev, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	// The burst runs through the handler in-process, so every request
	// is observed before the next scrape.
	body, err := server.AppendQueryRequest(nil, &server.QueryRequest{Query: query.Query{
		StartMillis: 0, EndMillis: 60000, Center: center, RadiusMeters: 100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("query: %d %s", w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{broken")))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("broken query: %d", w.Code)
	}

	f, err := topFrame(c, prev)
	if err != nil {
		t.Fatal(err)
	}
	var row *endpointRow
	for i := range f.rows {
		if f.rows[i].endpoint == "/query" {
			row = &f.rows[i]
		}
	}
	if row == nil {
		t.Fatalf("no /query row:\n%s", f.text)
	}
	live := reg.Histogram(`fovr_http_request_seconds{endpoint="/query"}`)
	if row.reqRate <= 0 || row.errRate <= 0 || row.requests != 51 {
		t.Errorf("/query row %+v, want req/s > 0, err/s > 0 and 51 requests", *row)
	}
	if row.p50 != live.Quantile(0.5) || row.p99 != live.Quantile(0.99) {
		t.Errorf("/query p50/p99 = %v/%v, histogram says %v/%v", row.p50, row.p99, live.Quantile(0.5), live.Quantile(0.99))
	}
	t.Logf("\n%s", f.text)
	for _, want := range []string{"/query", "/metrics", "ingest:", "wal:", "go:     heap"} {
		if !strings.Contains(f.text, want) {
			t.Errorf("frame lacks %q:\n%s", want, f.text)
		}
	}
}
