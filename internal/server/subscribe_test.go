package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

func TestSubscriptionMatchingOnUpload(t *testing.T) {
	s := newServer(t)
	sub := s.subs.add(query.Query{
		StartMillis: 0, EndMillis: 10_000,
		Center: center, RadiusMeters: 10,
	}, 10)

	// A covering upload, a wrong-time upload, a wrong-direction upload.
	p := geo.Offset(center, 180, 30)
	if _, err := s.Register(wire.Upload{Provider: "w", Reps: []segment.Representative{
		rep(p, 0, 1000, 2000),     // covers, in window
		rep(p, 0, 50_000, 60_000), // covers, out of window
		rep(p, 180, 1000, 2000),   // in window, faces away
	}}); err != nil {
		t.Fatal(err)
	}
	sub.mu.Lock()
	got := len(sub.matches)
	sub.mu.Unlock()
	if got != 1 {
		t.Fatalf("subscription collected %d matches, want 1", got)
	}
}

func TestSubscriptionBacklogBounded(t *testing.T) {
	s := newServer(t)
	sub := s.subs.add(query.Query{
		StartMillis: 0, EndMillis: 1 << 40,
		Center: center, RadiusMeters: 10,
	}, 10)
	p := geo.Offset(center, 180, 30)
	reps := make([]segment.Representative, 0, maxMatchBacklog+50)
	for i := 0; i < maxMatchBacklog+50; i++ {
		reps = append(reps, rep(p, 0, int64(i)*10, int64(i)*10+5))
	}
	if _, err := s.Register(wire.Upload{Provider: "w", Reps: reps}); err != nil {
		t.Fatal(err)
	}
	sub.mu.Lock()
	n, dropped := len(sub.matches), sub.dropped
	sub.mu.Unlock()
	if n != maxMatchBacklog {
		t.Fatalf("backlog %d, want %d", n, maxMatchBacklog)
	}
	if dropped != 50 {
		t.Fatalf("dropped %d, want 50", dropped)
	}
}

func TestUnsubscribeStopsMatching(t *testing.T) {
	s := newServer(t)
	sub := s.subs.add(query.Query{EndMillis: 10_000, Center: center, RadiusMeters: 10}, 10)
	if !s.subs.remove(sub.id) {
		t.Fatal("remove failed")
	}
	if s.subs.remove(sub.id) {
		t.Fatal("double remove succeeded")
	}
	p := geo.Offset(center, 180, 30)
	if _, err := s.Register(wire.Upload{Provider: "w", Reps: []segment.Representative{
		rep(p, 0, 1000, 2000),
	}}); err != nil {
		t.Fatal(err)
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.matches) != 0 {
		t.Fatal("removed subscription still collected matches")
	}
}

func TestSubscriptionHTTPErrorPaths(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(name string, resp *http.Response, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, want)
		}
	}

	resp, err := http.Get(ts.URL + "/subscribe")
	check("GET subscribe", resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/subscribe", "application/json", strings.NewReader("{broken"))
	check("broken subscribe body", resp, err, http.StatusBadRequest)

	bad, _ := json.Marshal(QueryRequest{Query: query.Query{StartMillis: 9, EndMillis: 1, Center: center}})
	resp, err = http.Post(ts.URL+"/subscribe", "application/json", bytes.NewReader(bad))
	check("invalid subscribe query", resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/matches?id=1", "text/plain", nil)
	check("POST matches", resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Get(ts.URL + "/matches?id=notanumber")
	check("bad matches id", resp, err, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/matches?id=7")
	check("unknown subscription", resp, err, http.StatusNotFound)

	resp, err = http.Get(ts.URL + "/matches?id=1&after=-3")
	check("bad cursor", resp, err, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/unsubscribe?id=1")
	check("GET unsubscribe", resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/unsubscribe?id=zzz", "text/plain", nil)
	check("bad unsubscribe id", resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/unsubscribe?id=99", "text/plain", nil)
	check("unknown unsubscribe", resp, err, http.StatusNotFound)

	// Happy path over HTTP: subscribe, upload, poll with cursor.
	good, _ := json.Marshal(QueryRequest{Query: query.Query{
		EndMillis: 10_000, Center: center, RadiusMeters: 10,
	}})
	resp, err = http.Post(ts.URL+"/subscribe", "application/json", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubscribeResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := s.Register(wire.Upload{Provider: "w", Reps: []segment.Representative{
		rep(geo.Offset(center, 180, 30), 0, 1000, 2000),
	}}); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Get(fmt.Sprintf("%s/matches?id=%d", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var mr MatchesResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(mr.Results) != 1 || mr.Last != 1 {
		t.Fatalf("matches = %+v", mr)
	}
}

// TestSubscriptionCap pins the bound on standing queries: 1 024 are
// accepted, the next answers 429 with a JSON error, and one
// /unsubscribe frees a slot for it.
func TestSubscriptionCap(t *testing.T) {
	const limit = 1024
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(QueryRequest{Query: query.Query{
		EndMillis: 10_000, Center: center, RadiusMeters: 10,
	}})
	subscribe := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/subscribe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}
	var first SubscribeResponse
	for i := 0; i < limit; i++ {
		resp, b := subscribe()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscription %d: status %d: %s", i+1, resp.StatusCode, b)
		}
		if i == 0 {
			if err := json.Unmarshal(b, &first); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, b := subscribe()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("subscription %d: status %d, want 429", limit+1, resp.StatusCode)
	}
	var er ErrorResponse
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 Content-Type %q, want application/json", ct)
	}
	if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
		t.Fatalf("429 body %q is not a JSON error (%v)", b, err)
	}
	if got := s.subs.count(); got != limit {
		t.Fatalf("%d subscriptions held after a refusal, want %d", got, limit)
	}

	uresp, err := http.Post(fmt.Sprintf("%s/unsubscribe?id=%d", ts.URL, first.ID), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("unsubscribe: status %d", uresp.StatusCode)
	}
	if resp, b := subscribe(); resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe after unsubscribe: status %d: %s", resp.StatusCode, b)
	}
}

func TestServeOnListener(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	resp, err := http.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	l.Close()
	<-done // Serve returns once the listener closes
}
