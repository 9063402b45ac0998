package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/wire"
)

var center = geo.Point{Lat: 40.0, Lng: 116.326}

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rep(p geo.Point, theta float64, ts, te int64) segment.Representative {
	return segment.Representative{FoV: fov.FoV{P: p, Theta: theta}, StartMillis: ts, EndMillis: te}
}

// uploadN registers n representatives around center for provider, one
// every 90 s of capture time.
func uploadN(t *testing.T, s *Server, provider string, n int) {
	t.Helper()
	reps := make([]segment.Representative, n)
	for i := range reps {
		start := int64(i) * 90_000
		reps[i] = rep(geo.Offset(center, float64(i*31%360), 30), 180, start, start+5_000)
	}
	if _, err := s.Register(wire.Upload{Provider: provider, Reps: reps}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Camera: fov.Camera{HalfAngleDeg: -1, RadiusMeters: 5}}); err == nil {
		t.Fatal("invalid camera accepted")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.DefaultMaxResults != 20 || s.cfg.MaxUploadBytes != 8<<20 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestRegisterAndQueryInProcess(t *testing.T) {
	s := newServer(t)
	p := geo.Offset(center, 180, 30)
	ids, err := s.Register(wire.Upload{
		Provider: "alice",
		Reps: []segment.Representative{
			rep(p, 0, 0, 5000),                           // facing the center
			rep(p, 180, 0, 5000),                         // facing away
			rep(geo.Offset(center, 0, 3000), 0, 0, 5000), // far away
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	results, err := s.Query(query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Entry.ID != 1 {
		t.Fatalf("results = %+v, want only segment 1", results)
	}
}

func TestRegisterEmptyProvider(t *testing.T) {
	s := newServer(t)
	if _, err := s.Register(wire.Upload{}); err == nil {
		t.Fatal("empty provider accepted")
	}
}

// TestRegisterRefusesIDsPastIDSpan: a server hands out ids up to
// IDBase+IDSpan and refuses, before it journals anything, an upload
// whose ids would pass that into the next partition's range.
func TestRegisterRefusesIDsPastIDSpan(t *testing.T) {
	const base = 2 * index.IDSpan
	st := openStore(t, t.TempDir())
	defer st.Close()
	s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Store: st, Registry: obs.NewRegistry(), IDBase: base})
	if err != nil {
		t.Fatal(err)
	}
	last := base + index.IDSpan
	s.mu.Lock()
	s.nextID = last - 1
	s.mu.Unlock()
	upload := func(n int) ([]uint64, error) {
		reps := make([]segment.Representative, n)
		for i := range reps {
			reps[i] = rep(center, float64(i), 0, 5000)
		}
		return s.Register(wire.Upload{Provider: "edge", Reps: reps})
	}
	if _, err := upload(3); err == nil {
		t.Fatal("an upload of 3 ids from the span's last id but one was accepted")
	}
	if ids, err := upload(2); err != nil || !slices.Equal(ids, []uint64{last - 1, last}) {
		t.Fatalf("the span's last two ids: %v, %v", ids, err)
	}
	if ids, err := upload(1); err == nil {
		t.Fatalf("an id past the span was handed out: %v", ids)
	}
	if st.HighID() != last || st.Len() != 2 || s.Index().Len() != 2 {
		t.Fatalf("after the refusals: store mark %d (want %d), store %d and index %d entries (want 2)",
			st.HighID(), last, st.Len(), s.Index().Len())
	}
}

// TestRefusedWriteStatuses pins the status of each refused write: a
// request that cannot succeed as sent is 400, ids past the span are 507,
// and a closed store is 503 on /upload and on /forget, like a faulted
// one (TestOpsFaultedStoreUploadIs503AndRetried).
func TestRefusedWriteStatuses(t *testing.T) {
	post := func(t *testing.T, s *Server, path string, u wire.Upload) int {
		t.Helper()
		body, err := wire.EncodeBinary(u)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w.Code
	}
	upload := wire.Upload{Provider: "alice", Reps: []segment.Representative{rep(center, 0, 0, 5000)}}
	for _, tc := range []struct {
		name  string
		spoil func(*Server, *store.Disk, *wire.Upload)
		want  int
	}{
		{"empty provider", func(_ *Server, _ *store.Disk, u *wire.Upload) { u.Provider = "" }, http.StatusBadRequest},
		{"id span exhausted", func(s *Server, _ *store.Disk, _ *wire.Upload) { s.nextID = index.IDSpan + 1 }, http.StatusInsufficientStorage},
		{"closed store", func(_ *Server, st *store.Disk, _ *wire.Upload) { st.Close() }, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			defer st.Close()
			s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Store: st, Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			if code := post(t, s, "/upload", upload); code != http.StatusOK {
				t.Fatalf("healthy upload: %d", code)
			}
			u := upload
			tc.spoil(s, st, &u)
			if code := post(t, s, "/upload", u); code != tc.want {
				t.Fatalf("upload: %d, want %d", code, tc.want)
			}
			if tc.want == http.StatusServiceUnavailable {
				if code := post(t, s, "/forget?provider=alice", u); code != tc.want {
					t.Fatalf("forget: %d, want %d", code, tc.want)
				}
			}
		})
	}

	// An entry the store will not encode cannot arrive in a wire body —
	// the decoder checks the same fields — so its error is mapped here.
	st := openStore(t, t.TempDir())
	defer st.Close()
	s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Store: st, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{rep(center, 0, -5000, -1000)}})
	w := httptest.NewRecorder()
	t.Logf("unencodable entry: %v", err)
	if s.refuse(w, err, http.StatusBadRequest); err == nil || w.Code != http.StatusBadRequest {
		t.Fatalf("unencodable entry: %v answered %d, want 400", err, w.Code)
	}
}

func TestRegisterRollbackOnInvalidRep(t *testing.T) {
	s := newServer(t)
	_, err := s.Register(wire.Upload{
		Provider: "bob",
		Reps: []segment.Representative{
			rep(center, 0, 0, 1000),
			{FoV: fov.FoV{P: geo.Point{Lat: 99, Lng: 0}}}, // invalid
		},
	})
	if err == nil {
		t.Fatal("invalid rep accepted")
	}
	if got := s.Index().Len(); got != 0 {
		t.Fatalf("rollback failed: %d entries remain", got)
	}
}

func TestHTTPUploadBinaryAndQuery(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := geo.Offset(center, 180, 40)
	body, err := wire.EncodeBinary(wire.Upload{
		Provider: "carol",
		Reps:     []segment.Representative{rep(p, 0, 1000, 9000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %s", resp.Status)
	}
	var ur UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if len(ur.IDs) != 1 {
		t.Fatalf("ids = %v", ur.IDs)
	}

	qBody, _ := json.Marshal(QueryRequest{
		Query: query.Query{StartMillis: 0, EndMillis: 10_000, Center: center, RadiusMeters: 20},
	})
	qResp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
	if err != nil {
		t.Fatal(err)
	}
	defer qResp.Body.Close()
	if qResp.StatusCode != http.StatusOK {
		t.Fatalf("query status %s", qResp.Status)
	}
	var qr QueryResponse
	if err := json.NewDecoder(qResp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || qr.Results[0].Entry.Provider != "carol" {
		t.Fatalf("results = %+v", qr.Results)
	}
	if qr.ElapsedMicros < 0 {
		t.Fatal("negative elapsed time")
	}
}

// TestHTTPUploadJSON: an upload has one encoding, wire binary; a JSON
// body is refused with 415 and registers nothing.
func TestHTTPUploadJSON(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := wire.Upload{Provider: "dave", Reps: []segment.Representative{rep(center, 90, 0, 1000)}}
	body, _ := json.Marshal(u)
	resp, err := http.Post(ts.URL+"/upload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON upload: status %s, want 415", resp.Status)
	}
	if s.Index().Len() != 0 {
		t.Fatal("JSON upload indexed")
	}
}

func TestHTTPErrorPaths(t *testing.T) {
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

	resp, err := http.Get(ts.URL + "/upload")
	check("GET upload", resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/upload", "application/octet-stream", strings.NewReader("garbage"))
	check("garbage upload", resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/upload", "application/json", strings.NewReader("{broken"))
	check("json upload", resp, err, http.StatusUnsupportedMediaType)

	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader("{broken"))
	check("broken json query", resp, err, http.StatusBadRequest)

	// Inverted interval -> validation error.
	qBody, _ := json.Marshal(QueryRequest{Query: query.Query{StartMillis: 10, EndMillis: 0, Center: center}})
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
	check("invalid query", resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/stats", "text/plain", strings.NewReader(""))
	check("POST stats", resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Get(ts.URL + "/healthz")
	check("healthz", resp, err, http.StatusOK)
}

func TestUploadSizeLimit(t *testing.T) {
	s, err := New(Config{MaxUploadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := bytes.Repeat([]byte{1}, 1024)
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, err := s.Register(wire.Upload{Provider: "erin", Reps: []segment.Representative{
		rep(center, 0, 0, 1000), rep(center, 90, 0, 1000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Segments != 2 || st.Providers["erin"] != 2 || st.IndexHeight < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentHTTPClients(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := geo.Offset(center, float64(w*45), float64(10+i))
				body, err := wire.EncodeBinary(wire.Upload{
					Provider: "p",
					Reps:     []segment.Representative{rep(p, 0, int64(i)*1000, int64(i+1)*1000)},
				})
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Index().Len(); got != 160 {
		t.Fatalf("indexed %d segments, want 160", got)
	}
	if err := s.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// IDs must be unique across concurrent uploads: Len == 160 with
	// duplicate-id rejection already proves it.
}

func TestForgetProvider(t *testing.T) {
	s := newServer(t)
	for _, prov := range []string{"keep", "gone"} {
		if _, err := s.Register(wire.Upload{Provider: prov, Reps: []segment.Representative{
			rep(center, 0, 0, 1000),
			rep(geo.Offset(center, 90, 40), 90, 0, 1000),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if removed, _ := s.ForgetProvider("gone"); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if s.Index().Len() != 2 {
		t.Fatalf("%d segments remain, want 2", s.Index().Len())
	}
	for _, e := range s.Index().Entries() {
		if e.Provider == "gone" {
			t.Fatal("forgotten provider still indexed")
		}
	}
	if removed, _ := s.ForgetProvider("gone"); removed != 0 {
		t.Fatalf("double forget removed %d", removed)
	}
	if err := s.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Over HTTP.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/forget?provider=keep", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["removed"] != 2 || s.Index().Len() != 0 {
		t.Fatalf("HTTP forget removed %d, %d remain", out["removed"], s.Index().Len())
	}
	// Missing provider param.
	resp2, err := http.Post(ts.URL+"/forget", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing provider status %d", resp2.StatusCode)
	}
}

// removeRefused is an in-memory store whose journal refuses removals.
type removeRefused struct{ *store.Mem }

func (removeRefused) AppendRemove([]uint64) error { return errors.New("journal refused the removal") }

// Forget journals first: when the journal refuses, nothing is removed,
// the caller gets the error (HTTP 500), every entry still answers
// /query and /stats still counts it.
func TestForgetJournalsFirst(t *testing.T) {
	s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Store: removeRefused{store.NewMem()}})
	if err != nil {
		t.Fatal(err)
	}
	// Cameras 30 m around center, each facing it, so a query at center
	// answers every one.
	facing := func(provider string, bearings ...float64) {
		reps := make([]segment.Representative, len(bearings))
		for i, b := range bearings {
			reps[i] = rep(geo.Offset(center, b, 30), math.Mod(b+180, 360), 0, 5000)
		}
		if _, err := s.Register(wire.Upload{Provider: provider, Reps: reps}); err != nil {
			t.Fatal(err)
		}
	}
	facing("gone", 0, 90, 200)
	facing("keep", 300)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	decode := func(resp *http.Response, err error, v any) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", resp.Request.URL.Path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	answers := func() []uint64 {
		body, _ := json.Marshal(QueryRequest{Query: query.Query{EndMillis: 5000, Center: center, RadiusMeters: 10}})
		var out QueryResponse
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		decode(resp, err, &out)
		ids := make([]uint64, len(out.Results))
		for i, r := range out.Results {
			ids[i] = r.Entry.ID
		}
		slices.Sort(ids)
		return ids
	}
	stats := func() Stats {
		var st Stats
		resp, err := http.Get(ts.URL + "/stats")
		decode(resp, err, &st)
		return st
	}
	wantIDs, wantStats := answers(), stats()
	if len(wantIDs) != 4 {
		t.Fatalf("before forget /query answers %v, want all 4 entries", wantIDs)
	}

	if removed, err := s.ForgetProvider("gone"); err == nil || removed != 0 {
		t.Fatalf("ForgetProvider with a refusing journal: removed %d, err %v", removed, err)
	}
	resp, err := http.Post(ts.URL+"/forget?provider=gone", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/forget with a refusing journal: status %d, want 500", resp.StatusCode)
	}
	if got := answers(); !slices.Equal(got, wantIDs) {
		t.Fatalf("after the refused forget /query answers %v, want %v", got, wantIDs)
	}
	got := stats()
	if got.Segments != wantStats.Segments || !maps.Equal(got.Providers, wantStats.Providers) {
		t.Fatalf("after the refused forget /stats = %d segments %v, want %d %v",
			got.Segments, got.Providers, wantStats.Segments, wantStats.Providers)
	}
}

// Forgetting a provider publishes its removal once: readers see all of
// its entries go together, and the read epoch moves by exactly one.
func TestForgetPublishesOnce(t *testing.T) {
	s := newServer(t)
	uploadN(t, s, "gone", 5)
	uploadN(t, s, "keep", 2)
	before := s.Index().ReadEpoch()
	if removed, err := s.ForgetProvider("gone"); err != nil || removed != 5 {
		t.Fatalf("ForgetProvider: removed %d, err %v", removed, err)
	}
	if got := s.Index().ReadEpoch(); got != before+1 {
		t.Fatalf("forgetting 5 entries moved the read epoch %d -> %d, want one publish", before, got)
	}
}

// uploadGate is an in-memory store whose AppendRegisterTraced (the
// append an upload journals through), once armed, announces itself on
// entered and waits for release: an upload held between counting its
// entries and publishing them.
type uploadGate struct {
	*store.Mem
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *uploadGate) AppendRegisterTraced(entries []index.Entry, trace string) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Mem.AppendRegisterTraced(entries, trace)
}

// A forget that runs while an upload from the same provider is counted
// but not yet published debits only what it removed, so /stats matches
// the index once the upload commits or rolls back.
func TestForgetDuringUploadKeepsProviderCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		last segment.Representative
	}{
		{"commit", rep(geo.Offset(center, 45, 30), 225, 0, 5000)},
		{"rollback", rep(center, 0, 5000, 1000)}, // inverted interval: InsertBatch fails
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &uploadGate{Mem: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
			s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Registry: obs.NewRegistry(), Store: g})
			if err != nil {
				t.Fatal(err)
			}
			uploadN(t, s, "p", 3)
			g.armed.Store(true)
			done := make(chan error, 1)
			go func() {
				_, err := s.Register(wire.Upload{Provider: "p", Reps: []segment.Representative{
					rep(geo.Offset(center, 90, 30), 270, 0, 5000), tc.last,
				}})
				done <- err
			}()
			<-g.entered
			if removed, err := s.ForgetProvider("p"); err != nil || removed != 3 {
				t.Fatalf("ForgetProvider: removed %d, err %v, want the 3 published entries", removed, err)
			}
			close(g.release)
			if err := <-done; (err == nil) != (tc.name == "commit") {
				t.Fatalf("held upload: err %v", err)
			}
			indexed := 0
			for _, e := range s.Index().Entries() {
				if e.Provider == "p" {
					indexed++
				}
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
			var st Stats
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if got := st.Providers["p"]; got != indexed {
				t.Fatalf("/stats counts %d entries for p, the index holds %d", got, indexed)
			}
		})
	}
}

// TestHandlerRoutes pins the route table: the 11 routes Handler serves
// answer something other than 404, and the removed standing-query and
// snapshot routes answer 404.
func TestHandlerRoutes(t *testing.T) {
	s := newServer(t)
	h := s.Handler()
	serve := func(req *http.Request) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	// A traced upload leaves a retained trace for /debug/traces/{id}.
	body, _ := wire.EncodeBinary(wire.Upload{Provider: "alice", Reps: []segment.Representative{rep(center, 0, 0, 1000)}})
	up := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
	up.Header.Set("Content-Type", "application/octet-stream")
	up.Header.Set(TraceHeader, "routes")
	if code := serve(up); code != http.StatusOK {
		t.Fatalf("traced upload: status %d", code)
	}
	for _, path := range []string{
		"/upload", "/query", "/nearest", "/stats", "/forget", "/checkpoint", "/replicate",
		"/metrics", "/healthz", "/debug/traces", "/debug/traces/routes",
	} {
		if code := serve(httptest.NewRequest(http.MethodGet, path, nil)); code == http.StatusNotFound {
			t.Errorf("GET %s: 404, want a served route", path)
		}
	}
	for _, path := range []string{"/subscribe", "/matches", "/unsubscribe", "/snapshot"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if code := serve(httptest.NewRequest(method, path, nil)); code != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, code)
			}
		}
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

func TestHeterogeneousCameras(t *testing.T) {
	// A telephoto provider (narrow but long) and a wide-angle provider
	// (wide but short) both stand 150 m from the scene, facing it. Only
	// the telephoto's declared optics can cover it; the deployment
	// default (R=100) would reject both.
	s := newServer(t)
	pos := geo.Offset(center, 0, 150)
	if _, err := s.Register(wire.Upload{
		Provider: "telephoto",
		Camera:   fov.Camera{HalfAngleDeg: 10, RadiusMeters: 300},
		Reps:     []segment.Representative{rep(pos, 180, 0, 1000)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(wire.Upload{
		Provider: "wideangle",
		Camera:   fov.Camera{HalfAngleDeg: 45, RadiusMeters: 40},
		Reps:     []segment.Representative{rep(pos, 180, 0, 1000)},
	}); err != nil {
		t.Fatal(err)
	}
	results, err := s.Query(query.Query{EndMillis: 1000, Center: center, RadiusMeters: 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Entry.Provider != "telephoto" {
		t.Fatalf("results = %+v, want only the telephoto device", results)
	}
}
