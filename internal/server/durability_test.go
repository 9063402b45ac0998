package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// openStore opens a durable store for tests, with background
// checkpointing off so file layout stays deterministic.
func openStore(t *testing.T, dir string) *store.Disk {
	t.Helper()
	st, err := store.Open(store.Options{
		Dir:                dir,
		CheckpointInterval: -1,
		Registry:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func durableServer(t *testing.T, st *store.Disk) *Server {
	t.Helper()
	s, err := New(Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Store:    st,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func queryIDs(t *testing.T, s *Server, q query.Query) []uint64 {
	t.Helper()
	ranked, err := s.Query(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(ranked))
	for i, r := range ranked {
		ids[i] = r.Entry.ID
	}
	return ids
}

// TestDurableRegisterSurvivesKill is the end-to-end acceptance test:
// uploads acknowledged over HTTP against a -data-dir store survive a
// simulated SIGKILL (the first process is abandoned without any
// shutdown) and a restarted server answers the same queries. The
// subtest is named after the index every server builds.
func TestDurableRegisterSurvivesKill(t *testing.T) {
	t.Run("rtree", testDurableRegisterSurvivesKill)
}

func testDurableRegisterSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := durableServer(t, st)
	ts := httptest.NewServer(s1.Handler())

	// Two HTTP uploads and one in-process one, then a forget.
	up := wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(geo.Offset(center, 180, 30), 0, 0, 5000),
		rep(geo.Offset(center, 90, 40), 270, 1000, 6000),
	}}
	body, err := wire.EncodeBinary(up)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	if _, err := s1.Register(wire.Upload{Provider: "bob", Reps: []segment.Representative{
		rep(geo.Offset(center, 0, 20), 180, 2000, 7000),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Register(wire.Upload{Provider: "mallory", Reps: []segment.Representative{
		rep(geo.Offset(center, 45, 25), 225, 0, 5000),
	}}); err != nil {
		t.Fatal(err)
	}
	if removed, _ := s1.ForgetProvider("mallory"); removed != 1 {
		t.Fatalf("forgot %d segments, want 1", removed)
	}

	q := query.Query{Center: center, RadiusMeters: 60, StartMillis: 0, EndMillis: 10000}
	want := queryIDs(t, s1, q)
	if len(want) == 0 {
		t.Fatal("test query matches nothing; harness is vacuous")
	}

	// SIGKILL: the first server and store are simply abandoned —
	// no Close, no checkpoint, no flush beyond what acknowledged
	// appends already forced.
	ts.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := durableServer(t, st2)
	if got := queryIDs(t, s2, q); !equalIDs(got, want) {
		t.Fatalf("after restart query = %v, want %v", got, want)
	}
	// The forgotten provider stays forgotten and id assignment
	// resumes past every recovered id.
	if ids := queryIDs(t, s2, query.Query{
		Center: center, RadiusMeters: 1e6, StartMillis: 0, EndMillis: 1 << 40,
	}); containsProvider(s2, ids, "mallory") {
		t.Fatal("forgotten provider resurrected by recovery")
	}
	ids, err := s2.Register(wire.Upload{Provider: "carol", Reps: []segment.Representative{
		rep(center, 0, 3000, 8000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if ids[0] <= w {
			t.Fatalf("post-restart id %d collides with recovered id %d", ids[0], w)
		}
	}
}

// TestDurableTornTailDroppedOnRestart cuts the live WAL segment
// mid-record — the on-disk state after a kill during an acknowledged
// write's sector flush — and verifies the next boot serves exactly the
// committed prefix.
func TestDurableTornTailDroppedOnRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := durableServer(t, st)
	if _, err := s1.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(geo.Offset(center, 180, 30), 0, 0, 5000),
	}}); err != nil {
		t.Fatal(err)
	}
	q := query.Query{Center: center, RadiusMeters: 60, StartMillis: 0, EndMillis: 10000}
	want := queryIDs(t, s1, q)
	if _, err := s1.Register(wire.Upload{Provider: "bob", Reps: []segment.Representative{
		rep(geo.Offset(center, 180, 35), 0, 0, 5000),
	}}); err != nil {
		t.Fatal(err)
	}

	// Tear the second upload's record: chop 3 bytes off the log.
	walPath := walFile(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := durableServer(t, st2)
	if got := queryIDs(t, s2, q); !equalIDs(got, want) {
		t.Fatalf("after torn-tail restart query = %v, want committed prefix %v", got, want)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	s := durableServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
	}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/checkpoint", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var cp CheckpointResponse
	err = json.NewDecoder(resp.Body).Decode(&cp)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint status %d err %v", resp.StatusCode, err)
	}
	if cp.Entries != 1 {
		t.Fatalf("checkpoint covered %d entries, want 1", cp.Entries)
	}
	// The checkpoint sealed the entry: a segment file, named by a
	// manifest whose base is the generation it rotated to.
	if names, _ := filepath.Glob(filepath.Join(dir, "seg-*.fovg")); len(names) != 1 {
		t.Fatalf("checkpoint sealed into %v, want one segment file", names)
	}
	if ms := st.ManifestSnapshot(); ms.BaseGen != 2 || len(ms.Segments) != 1 {
		t.Fatalf("manifest after the checkpoint: %+v", ms)
	}

	// A memory-only server reports the conflict instead.
	mem := newServer(t)
	tsMem := httptest.NewServer(mem.Handler())
	defer tsMem.Close()
	resp, err = http.Post(tsMem.URL+"/checkpoint", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("memory checkpoint status %d, want 409", resp.StatusCode)
	}
}

// TestUploadSizeBoundary pins the exact MaxUploadBytes edge: a valid
// body of exactly the limit is accepted; one byte over is 413.
func TestUploadSizeBoundary(t *testing.T) {
	up := wire.Upload{Provider: "edge", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
	}}
	body, err := wire.EncodeBinary(up)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{MaxUploadBytes: int64(len(body))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly MaxUploadBytes rejected with %d", resp.StatusCode)
	}

	tight, err := New(Config{MaxUploadBytes: int64(len(body)) - 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(tight.Handler())
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("limit+1 body got %d, want 413", resp.StatusCode)
	}
}

func TestStatsReportsDurable(t *testing.T) {
	mem := newServer(t)
	tsMem := httptest.NewServer(mem.Handler())
	defer tsMem.Close()
	var st Stats
	resp, err := http.Get(tsMem.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Durable {
		t.Fatal("memory server claims durability")
	}

	d := openStore(t, t.TempDir())
	defer d.Close()
	s := durableServer(t, d)
	tsD := httptest.NewServer(s.Handler())
	defer tsD.Close()
	resp, err = http.Get(tsD.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable {
		t.Fatal("durable server does not report durability")
	}
}

// walFile returns the single live WAL segment in dir.
func walFile(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "wal-") && strings.HasSuffix(de.Name(), ".log") {
			if found != "" {
				t.Fatalf("multiple wal segments: %s, %s", found, de.Name())
			}
			found = filepath.Join(dir, de.Name())
		}
	}
	if found == "" {
		t.Fatal("no wal segment found")
	}
	return found
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsProvider reports whether any of ids belongs to provider in
// the server's index.
func containsProvider(s *Server, ids []uint64, provider string) bool {
	owner := map[uint64]string{}
	for _, e := range s.index().Entries() {
		owner[e.ID] = e.Provider
	}
	for _, id := range ids {
		if owner[id] == provider {
			return true
		}
	}
	return false
}

// TestIDsNotReusedAfterRestart: an id once handed out stays spent. a
// takes ids 1–2 and b id 3; after b is forgotten and the server
// restarted, c gets 4 — the log still holds b's register record — and
// after c is forgotten, a checkpoint retires that log and the server
// restarts again, d gets 5 from the manifest's id mark.
func TestIDsNotReusedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	upload := func(s *Server, provider string, n int) []uint64 {
		t.Helper()
		reps := make([]segment.Representative, n)
		for i := range reps {
			reps[i] = rep(geo.Offset(center, float64(90*i), 30), 0, int64(i)*10_000, int64(i)*10_000+5_000)
		}
		ids, err := s.Register(wire.Upload{Provider: provider, Reps: reps})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	forget := func(s *Server, provider string) {
		t.Helper()
		if n, err := s.ForgetProvider(provider); err != nil || n != 1 {
			t.Fatalf("forget %s: removed %d, err %v", provider, n, err)
		}
	}
	st := openStore(t, dir)
	s := durableServer(t, st)
	if a, b := upload(s, "a", 2), upload(s, "b", 1); !equalIDs(a, []uint64{1, 2}) || !equalIDs(b, []uint64{3}) {
		t.Fatalf("a got %v and b %v, want [1 2] and [3]", a, b)
	}
	forget(s, "b")
	st.Close()

	st = openStore(t, dir)
	s = durableServer(t, st)
	if c := upload(s, "c", 1); !equalIDs(c, []uint64{4}) {
		t.Fatalf("after forgetting b and a restart, c got %v, want [4]", c)
	}
	forget(s, "c")
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = openStore(t, dir)
	defer st.Close()
	s = durableServer(t, st)
	if d := upload(s, "d", 1); !equalIDs(d, []uint64{5}) {
		t.Fatalf("after forgetting c, a checkpoint and a restart, d got %v, want [5]", d)
	}
}
