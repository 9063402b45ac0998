package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

func TestNearestHTTP(t *testing.T) {
	s := newServer(t)
	// Cameras south of the center facing north (theta 0) cover it; the
	// others are too far for the 100 m camera or outside the interval.
	reps := []segment.Representative{
		rep(geo.Offset(center, 180, 30), 0, 0, 5000),
		rep(geo.Offset(center, 180, 60), 0, 0, 5000),
		rep(geo.Offset(center, 90, 2000), 0, 0, 5000),    // beyond camera radius
		rep(geo.Offset(center, 180, 30), 0, 9000, 12000), // outside the time range
	}
	if _, err := s.Register(wire.Upload{Provider: "alice", Reps: reps}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(NearestRequest{Center: center, StartMillis: 0, EndMillis: 5000, K: 2})
	resp, err := http.Post(ts.URL+"/nearest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var nr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	if len(nr.Results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(nr.Results), nr.Results)
	}
	// Ordered closest-first, and the out-of-range rep (id 4) excluded.
	if nr.Results[0].Entry.ID != 1 || nr.Results[1].Entry.ID != 2 {
		t.Fatalf("order: ids %d, %d, want 1, 2", nr.Results[0].Entry.ID, nr.Results[1].Entry.ID)
	}

	// GET is rejected; garbage JSON is rejected.
	getResp, err := http.Get(ts.URL + "/nearest")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /nearest: status %d", getResp.StatusCode)
	}
	badResp, err := http.Post(ts.URL+"/nearest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", badResp.StatusCode)
	}
}

func TestMisdirectedUploadMapsTo421(t *testing.T) {
	s, err := New(Config{
		OwnsRep: func(r segment.Representative) error {
			if r.StartMillis >= 1000 {
				return ErrMisdirected
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	owned := wire.Upload{Provider: "p", Reps: []segment.Representative{rep(center, 0, 0, 500)}}
	body, err := wire.EncodeBinary(owned)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned upload: status %d", resp.StatusCode)
	}

	foreign := wire.Upload{Provider: "p", Reps: []segment.Representative{rep(center, 0, 2000, 2500)}}
	body, err = wire.EncodeBinary(foreign)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign upload: status %d, want 421", resp.StatusCode)
	}
	// All-or-nothing: the misdirected batch must not have registered.
	if got := s.Index().Len(); got != 1 {
		t.Fatalf("index has %d entries after rejected upload, want 1", got)
	}
}
