package server

import (
	"encoding/json"
	"errors"
	"fmt"
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

// bootstrapState replaces s's state with entries the way a follower's
// bootstrap does: one installed segment holding them, then the swap.
func bootstrapState(s *Server, entries []index.Entry) error {
	img, crc, err := store.EncodeSegment(0, entries)
	if err != nil {
		return err
	}
	meta := store.SegmentMeta{Seq: 1, Count: len(entries), Bytes: int64(len(img)), CRC: crc}
	if err := s.InstallSegment(meta, img); err != nil {
		return err
	}
	return s.FinishBootstrap(store.ManifestSnapshot{Segments: []store.SegmentMeta{meta}})
}

// TestReadOnlyRejectsTyped pins the typed-error contract: every mutator
// fails with an error satisfying errors.Is(err, ErrReadOnly), and the
// replication apply and bootstrap paths stay open.
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
	if err := s.FinishBootstrap(store.ManifestSnapshot{}); err != nil {
		t.Fatalf("FinishBootstrap on replica: %v", err)
	}
}

// TestFinishBootstrapKeepsIDBaseFloor pins the one bookkeeping rule New
// and FinishBootstrap share: after a bootstrap the provider counts are
// the new state's, and ids continue past both the IDBase floor and every
// id the new state holds.
func TestFinishBootstrapKeepsIDBaseFloor(t *testing.T) {
	const base = 1 << 48
	cam := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
	s, err := New(Config{Camera: cam, Registry: obs.NewRegistry(), IDBase: base})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(id uint64, provider string) index.Entry {
		return index.Entry{ID: id, Provider: provider, Rep: rep(center, 0, 0, 5000), Camera: cam}
	}
	for _, tc := range []struct {
		name  string
		state []index.Entry
		next  uint64
	}{
		{"below the floor", []index.Entry{entry(7, "low")}, base + 1},
		{"above the floor", []index.Entry{entry(base+40, "high"), entry(base+3, "high")}, base + 41},
	} {
		if err := bootstrapState(s, tc.state); err != nil {
			t.Fatal(err)
		}
		if got := s.byProvider[tc.state[0].Provider]; got != len(tc.state) || len(s.byProvider) != 1 {
			t.Fatalf("%s: provider counts %v after a bootstrap of %d entries", tc.name, s.byProvider, len(tc.state))
		}
		ids, err := s.Register(wire.Upload{Provider: "up", Reps: []segment.Representative{rep(center, 90, 0, 5000)}})
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] != tc.next {
			t.Fatalf("%s: first id after the bootstrap %d, want %d", tc.name, ids[0], tc.next)
		}
	}
}

// TestReadOnlyHTTPMapping pins the HTTP shape: 409 with a JSON body
// whose Leader field names the writable leader.
func TestReadOnlyHTTPMapping(t *testing.T) {
	s := readOnlyServer(t, store.NewMem())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := wire.EncodeBinary(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path, ct, body string }{
		{"upload", "/upload", "application/octet-stream", string(body)},
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

	// One sealed window and a memtable entry.
	if _, err := s.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		rep(center, 0, 0, 5000),
		rep(geo.Offset(center, 90, 10), 90, 1000, 6000),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(wire.Upload{Provider: "carol", Reps: []segment.Representative{
		rep(geo.Offset(center, 45, 10), 45, 4_000_000, 4_005_000),
	}}); err != nil {
		t.Fatal(err)
	}
	get := func(query, wantStream string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/replicate" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", query, resp.StatusCode, body)
		}
		if got := resp.Header.Get(replica.HeaderStream); got != wantStream {
			t.Fatalf("%s: stream %q, want %q", query, got, wantStream)
		}
		if resp.Header.Get(replica.HeaderStoreID) == "" {
			t.Fatalf("%s: response lacks store id", query)
		}
		return resp, body
	}

	// Bootstrap leg 1: the manifest names the sealed window and the
	// generation the checkpoint rotated to.
	_, body := get("?manifest=1", replica.StreamManifest)
	var ms store.ManifestSnapshot
	if err := json.Unmarshal(body, &ms); err != nil || len(ms.Segments) != 1 || ms.BaseGen != 2 {
		t.Fatalf("manifest %s: %+v, err %v", body, ms, err)
	}
	seg := ms.Segments[0]

	// Leg 2: the segment's file bytes; a sequence the manifest moved past
	// is a 404.
	if _, raw := get(fmt.Sprintf("?segment=%d&seq=%d", seg.Window, seg.Seq), replica.StreamSegment); int64(len(raw)) != seg.Bytes {
		t.Fatalf("segment body %d bytes, manifest says %d", len(raw), seg.Bytes)
	}
	resp, err := http.Get(ts.URL + fmt.Sprintf("/replicate?segment=%d&seq=%d", seg.Window, seg.Seq+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("superseded segment status %d, want 404", resp.StatusCode)
	}

	// A zero cursor is sent to the bootstrap: an empty tail, next zero.
	resp, raw := get("", replica.StreamWAL)
	if len(raw) != 0 || resp.Header.Get(replica.HeaderNextGen) != "0" || resp.Header.Get(replica.HeaderNextOff) != "0" {
		t.Fatalf("zero cursor: %d bytes, next %s/%s", len(raw),
			resp.Header.Get(replica.HeaderNextGen), resp.Header.Get(replica.HeaderNextOff))
	}

	// The tail from the manifest's base generation holds exactly what
	// the segments do not: carol's upload.
	resp, raw = get(fmt.Sprintf("?gen=%d&off=0", ms.BaseGen), replica.StreamWAL)
	recs, valid, err := store.DecodeWAL(raw)
	if err != nil || valid != len(raw) || len(recs) != 1 || recs[0].Entries[0].Provider != "carol" {
		t.Fatalf("tail from the base: %d records, valid %d of %d, err %v", len(recs), valid, len(raw), err)
	}
	tail := "?gen=" + resp.Header.Get(replica.HeaderNextGen) + "&off=" + resp.Header.Get(replica.HeaderNextOff)
	if _, raw := get(tail, replica.StreamWAL); len(raw) != 0 {
		t.Fatalf("caught-up tail shipped %d bytes", len(raw))
	}

	// New records appear as decodable frames on the next tail.
	if _, err := s.Register(wire.Upload{Provider: "bob", Reps: []segment.Representative{
		rep(geo.Offset(center, 180, 20), 0, 2000, 7000),
	}}); err != nil {
		t.Fatal(err)
	}
	_, raw = get(tail, replica.StreamWAL)
	recs, valid, err = store.DecodeWAL(raw)
	if err != nil || valid != len(raw) || len(recs) != 1 || len(recs[0].Entries) != 1 {
		t.Fatalf("tail frames: %d records, valid %d of %d, err %v", len(recs), valid, len(raw), err)
	}

	// A checkpoint deletes the log under a mid-generation cursor: that
	// cursor, too, is sent to the bootstrap.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if resp, raw := get(tail, replica.StreamWAL); len(raw) != 0 || resp.Header.Get(replica.HeaderNextGen) != "0" {
		t.Fatalf("unservable cursor: %d bytes, next gen %s", len(raw), resp.Header.Get(replica.HeaderNextGen))
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

// TestReplicateRejectsMalformedParams pins that a parameter that does
// not parse answers 400 naming it, instead of reading as zero: a gen=x
// would otherwise send the follower to re-bootstrap, a segment=x ask
// for window 0.
func TestReplicateRejectsMalformedParams(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	ts := httptest.NewServer(durableServer(t, st).Handler())
	defer ts.Close()
	for _, tc := range []struct{ query, param string }{
		{"gen=x&off=0", "gen"},
		{"gen=1&off=x", "off"},
		{"gen=1&off=0&wait=soon", "wait"},
		{"segment=x&seq=1", "segment"},
		{"segment=0&seq=-1", "seq"},
	} {
		resp, err := http.Get(ts.URL + "/replicate?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad "+tc.param) {
			t.Fatalf("?%s: status %d (%s), want 400 naming %s", tc.query, resp.StatusCode, body, tc.param)
		}
	}
}

// TestReplicateSegmentMissIsNotServed pins that a segment request the
// manifest moved past answers 404 and leaves the served-stream counter
// and the shipped bytes unchanged: only served bodies are counted.
func TestReplicateSegmentMissIsNotServed(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s := durableServer(t, st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	served := s.Registry().Counter(`fovr_replica_serve_total{stream="segment"}`)
	shipped := s.Registry().Counter("fovr_replica_shipped_bytes_total")
	resp, err := http.Get(ts.URL + "/replicate?segment=7&seq=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing segment status %d, want 404", resp.StatusCode)
	}
	if served.Value() != 0 || shipped.Value() != 0 {
		t.Fatalf("a 404 counted as served: %d segment streams, %d bytes", served.Value(), shipped.Value())
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
