package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

// TestBearingRingFoundEverywhere serves the bearing ring: eight devices
// that see 300 m, three times the deployment camera's 100 m, stand
// 130 m from the query point, one every 45°, facing it. Every read
// surface finds all eight, at radius 0 and at 20 m: Server.Query, HTTP
// /query and /nearest, and a server booted from the first one's store
// after a checkpoint and one more upload. No flag or option told the
// server about the wide devices; the index learned their radius as it
// admitted them.
func TestBearingRingFoundEverywhere(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := durableServer(t, st)
	var reps []segment.Representative
	for i := 0; i < 8; i++ {
		bearing := float64(i) * 45
		reps = append(reps, rep(geo.Offset(center, bearing, 130), geo.NormalizeDeg(bearing+180), 0, 1000))
	}
	wide := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 300}
	ids, err := s.Register(wire.Upload{Provider: "ring", Camera: wide, Reps: reps[:4]})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more, err := s.Register(wire.Upload{Provider: "ring", Camera: wide, Reps: reps[4:]})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, more...)
	slices.Sort(ids)
	check := func(how string, got []query.Ranked) {
		t.Helper()
		var found []uint64
		for _, g := range got {
			found = append(found, g.Entry.ID)
		}
		slices.Sort(found)
		if !slices.Equal(found, ids) {
			t.Errorf("%s: found %v, want all eight %v", how, found, ids)
		}
	}
	post := func(url string, req any, into any) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, r := range []float64{0, 20} {
		q := query.Query{EndMillis: 1000, Center: center, RadiusMeters: r}
		got, err := s.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		check("Server.Query", got)
		var qr QueryResponse
		post(ts.URL+"/query", QueryRequest{Query: q, MaxResults: 10}, &qr)
		check("/query", qr.Results)
	}
	var nr QueryResponse
	post(ts.URL+"/nearest", NearestRequest{Center: center, EndMillis: 1000, K: 10}, &nr)
	check("/nearest", nr.Results)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	booted := durableServer(t, openStore(t, dir))
	for _, r := range []float64{0, 20} {
		got, err := booted.Query(query.Query{EndMillis: 1000, Center: center, RadiusMeters: r}, 10)
		if err != nil {
			t.Fatal(err)
		}
		check("a server booted from the store", got)
	}
}
