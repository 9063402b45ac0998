package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/segment"
	"fovr/internal/snapshot"
	"fovr/internal/store"
	"fovr/internal/wire"
)

func readOnlyServer(t *testing.T, st store.Store) *Server {
	t.Helper()
	s, err := New(Config{
		Camera:    fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Store:     st,
		Registry:  obs.NewRegistry(),
		ReadOnly:  true,
		LeaderURL: "http://leader.example:8477",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReadOnlyRejectsTyped pins the typed-error contract: every mutator
// fails with an error satisfying errors.Is(err, ErrReadOnly), and the
// Apply/Reset paths stay open.
func TestReadOnlyRejectsTyped(t *testing.T) {
	s := readOnlyServer(t, store.NewMem())
	up := wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
	}}
	if _, err := s.Register(up); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Register on replica: %v, want ErrReadOnly", err)
	}
	if _, err := s.ForgetProvider("alice"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ForgetProvider on replica: %v, want ErrReadOnly", err)
	}
	if err := s.LoadSnapshot(strings.NewReader("")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("LoadSnapshot on replica: %v, want ErrReadOnly", err)
	}

	// The replication apply paths are exempt from the fence.
	if err := s.ApplyRegister([]index.Entry{{
		ID: 1, Provider: "bob", Rep: rep(center, 0, 0, 5000),
		Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
	}}, ""); err != nil {
		t.Fatalf("ApplyRegister on replica: %v", err)
	}
	if err := s.ApplyRemove([]uint64{1}, ""); err != nil {
		t.Fatalf("ApplyRemove on replica: %v", err)
	}
	if err := s.ResetState(nil); err != nil {
		t.Fatalf("ResetState on replica: %v", err)
	}
}

// TestReadOnlyHTTPMapping pins the HTTP shape: 409 with a JSON body
// whose Leader field names the writable leader.
func TestReadOnlyHTTPMapping(t *testing.T) {
	s := readOnlyServer(t, store.NewMem())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path, ct, body string }{
		{"upload", "/upload", "application/json", string(body)},
		{"forget", "/forget?provider=alice", "text/plain", ""},
	} {
		resp, err := http.Post(ts.URL+tc.path, tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s: status %d, want 409", tc.name, resp.StatusCode)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%s: body %q is not JSON: %v", tc.name, raw, err)
		}
		if er.Leader != "http://leader.example:8477" {
			t.Fatalf("%s: Leader = %q", tc.name, er.Leader)
		}
		if er.Error == "" || !strings.Contains(er.Error, "read-only") {
			t.Fatalf("%s: Error = %q", tc.name, er.Error)
		}
	}
}

func TestReplicateEndpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	s := durableServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
		rep(geo.Offset(center, 90, 10), 90, 1000, 6000),
	}}); err != nil {
		t.Fatal(err)
	}

	// Bootstrap: no cursor → snapshot stream with a resume cursor.
	resp, err := http.Get(ts.URL + "/replicate")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bootstrap status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(replica.HeaderStream); got != replica.StreamSnapshot {
		t.Fatalf("bootstrap stream %q", got)
	}
	if resp.Header.Get(replica.HeaderStoreID) == "" {
		t.Fatal("bootstrap response lacks store id")
	}
	entries, err := snapshot.Read(resp.Body)
	resp.Body.Close()
	if err != nil || len(entries) != 2 {
		t.Fatalf("bootstrap snapshot: %d entries, err %v", len(entries), err)
	}
	nextGen := resp.Header.Get(replica.HeaderNextGen)
	nextOff := resp.Header.Get(replica.HeaderNextOff)

	// Tail from the snapshot's cursor: caught up, empty WAL stream.
	resp, err = http.Get(ts.URL + "/replicate?gen=" + nextGen + "&off=" + nextOff)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(replica.HeaderStream); got != replica.StreamWAL {
		t.Fatalf("tail stream %q", got)
	}
	if len(raw) != 0 {
		t.Fatalf("caught-up tail shipped %d bytes", len(raw))
	}

	// New records appear as decodable frames on the next tail.
	if _, err := s.Register(wire.Upload{Provider: "bob", Reps: []segment.Representative{
		rep(geo.Offset(center, 180, 20), 0, 2000, 7000),
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/replicate?gen=" + nextGen + "&off=" + nextOff)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	recs, valid, err := store.DecodeWAL(raw)
	if err != nil || valid != len(raw) || len(recs) != 1 || len(recs[0].Entries) != 1 {
		t.Fatalf("tail frames: %d records, valid %d of %d, err %v", len(recs), valid, len(raw), err)
	}

	// Non-GET is rejected.
	postResp, err := http.Post(ts.URL+"/replicate", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /replicate status %d", postResp.StatusCode)
	}
}

func TestReplicateRequiresDurableLeader(t *testing.T) {
	s := newServer(t) // memory store: no log to ship
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/replicate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("memory /replicate status %d, want 409", resp.StatusCode)
	}
}

// TestApplyPathsMirrorIngest verifies the follower-side Apply methods
// maintain the same server invariants as Register/ForgetProvider:
// provider counts, id ratchet, and journal-first durability.
func TestApplyPathsMirrorIngest(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := readOnlyServer(t, st)

	e1 := index.Entry{ID: 7, Provider: "alice", Rep: rep(center, 0, 0, 5000),
		Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}}
	e2 := index.Entry{ID: 9, Provider: "alice", Rep: rep(geo.Offset(center, 90, 10), 90, 1000, 6000),
		Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}}
	if err := s.ApplyRegister([]index.Entry{e1, e2}, "lead-tr-1"); err != nil {
		t.Fatal(err)
	}
	if got := s.Index().Len(); got != 2 {
		t.Fatalf("after ApplyRegister index holds %d", got)
	}
	// A traced apply is retained and resolvable by the originating
	// leader trace id (stored as Origin on the follower-side trace).
	if tr := s.Traces().Get("lead-tr-1"); tr == nil {
		t.Fatal("traced ApplyRegister left no retained trace for the leader id")
	} else if tr.Origin != "lead-tr-1" {
		t.Fatalf("apply trace Origin = %q, want lead-tr-1", tr.Origin)
	}
	if err := s.ApplyRemove([]uint64{7}, ""); err != nil {
		t.Fatal(err)
	}
	if got := s.Index().Len(); got != 1 {
		t.Fatalf("after ApplyRemove index holds %d", got)
	}
	// Unknown ids are skipped without error (leader rollbacks journal
	// removals for never-inserted ids).
	if err := s.ApplyRemove([]uint64{12345}, ""); err != nil {
		t.Fatal(err)
	}

	// The applied records were journaled: a reopen recovers them, and a
	// promoted writable server assigns ids past the replicated ones.
	st.Close()
	st2 := openStore(t, dir)
	defer st2.Close()
	promoted := durableServer(t, st2)
	if got := promoted.Index().Len(); got != 1 {
		t.Fatalf("recovered %d entries, want 1", got)
	}
	ids, err := promoted.Register(wire.Upload{Provider: "bob", Reps: []segment.Representative{
		rep(center, 0, 2000, 7000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] <= 9 {
		t.Fatalf("promoted id %d does not ratchet past replicated id 9", ids[0])
	}
}
