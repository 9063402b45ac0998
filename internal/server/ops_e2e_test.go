// Ops-plane end-to-end tests: trace propagation across the process
// boundary (client → leader ingest → WAL → follower apply) and the
// health engine's failing flip under an induced store fault. These are
// the acceptance tests CI runs as its ops-plane smoke step; they live
// in an external test package because they drive real HTTP through
// internal/client, which itself imports server.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

var opsCenter = geo.Point{Lat: 40.0013, Lng: 116.326}

func opsUpload(n int) wire.Upload {
	up := wire.Upload{Provider: "alice", Reps: make([]segment.Representative, n)}
	for i := range up.Reps {
		up.Reps[i] = segment.Representative{
			FoV:         fov.FoV{P: geo.Offset(opsCenter, float64(i*37%360), float64(5+i)), Theta: float64(i * 13 % 360)},
			StartMillis: int64(i) * 1000,
			EndMillis:   int64(i)*1000 + 5000,
		}
	}
	return up
}

func opsOpenDisk(t *testing.T, dir string) *store.Disk {
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

func opsLeader(t *testing.T, st store.Store) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Store:    st,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func opsFollower(t *testing.T, st store.Store, leaderURL string) (*server.Server, *httptest.Server, *replica.Follower) {
	t.Helper()
	srv, err := server.New(server.Config{
		Camera:    fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Store:     st,
		Registry:  obs.NewRegistry(),
		ReadOnly:  true,
		LeaderURL: leaderURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := client.NewReplicator(leaderURL)
	rep.RetryDelay = 5 * time.Millisecond
	fol, err := replica.Start(replica.Options{
		Fetch:    rep,
		Apply:    srv,
		Poll:     20 * time.Millisecond,
		Registry: srv.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachFollower(fol)
	t.Cleanup(fol.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, fol
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode != http.StatusNotFound {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestOpsTracePropagationE2E is the tentpole acceptance test for trace
// propagation: an upload stamped with X-Fovr-Trace is resolvable under
// that same ID on the leader AND on a follower that replicated it —
// the follower-side /debug/traces entry names the originating leader
// request via Origin.
func TestOpsTracePropagationE2E(t *testing.T) {
	leaderStore := opsOpenDisk(t, t.TempDir())
	defer leaderStore.Close()
	_, lts := opsLeader(t, leaderStore)

	fst := opsOpenDisk(t, t.TempDir())
	defer fst.Close()
	_, fts, fol := opsFollower(t, fst, lts.URL)

	// Traces ride WAL records, not bootstrap snapshots: wait until the
	// follower is tailing the log before the traced upload.
	for d := time.Now().Add(15 * time.Second); !fol.Status().CaughtUp; {
		if time.Now().After(d) {
			t.Fatalf("follower never caught up: %+v", fol.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	const traceID = "lead-trace-42"
	body, err := wire.EncodeBinary(opsUpload(3))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, lts.URL+"/upload", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(server.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ur server.UploadResponse
	err = json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d, err %v", resp.StatusCode, err)
	}
	if ur.TraceID != traceID {
		t.Fatalf("upload response trace = %q, want the propagated %q", ur.TraceID, traceID)
	}

	// Leader half: the ingest trace is retained under the client's ID.
	var leaderTrace obs.QueryTrace
	if code := getJSON(t, lts.URL+"/debug/traces/"+traceID, &leaderTrace); code != http.StatusOK {
		t.Fatalf("leader /debug/traces/%s: status %d", traceID, code)
	}
	if leaderTrace.ID != traceID {
		t.Fatalf("leader trace ID = %q, want %q", leaderTrace.ID, traceID)
	}

	// Follower half: once the record replicates, the same ID resolves on
	// the follower — to the apply-side trace whose Origin is the leader
	// request.
	var followerTrace obs.QueryTrace
	deadline := time.Now().Add(15 * time.Second)
	for {
		if code := getJSON(t, fts.URL+"/debug/traces/"+traceID, &followerTrace); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never retained a trace resolvable as %q", traceID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if followerTrace.Origin != traceID {
		t.Fatalf("follower trace Origin = %q, want %q", followerTrace.Origin, traceID)
	}
	if followerTrace.ID == traceID {
		t.Fatal("follower trace reuses the leader ID instead of minting its own")
	}

	// An upload without the header gets a server-minted trace ID and is
	// NOT retained as an ingest trace (tail-sampling only).
	resp2, err := http.Post(lts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur2 server.UploadResponse
	err = json.NewDecoder(resp2.Body).Decode(&ur2)
	resp2.Body.Close()
	if err != nil || ur2.TraceID == "" || ur2.TraceID == traceID {
		t.Fatalf("unpropagated upload trace = %q, err %v", ur2.TraceID, err)
	}
}

// TestOpsHealthzFlipsFailingOnFault is the health-engine acceptance
// test: a healthy leader answers /healthz 200 "ok"; after an induced
// sticky store fault it answers 503 "failing" with a machine-readable
// store reason, and ingest errors surface to clients.
func TestOpsHealthzFlipsFailingOnFault(t *testing.T) {
	st := opsOpenDisk(t, t.TempDir())
	defer st.Close()
	_, ts := opsLeader(t, st)

	var hr server.HealthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("healthy /healthz: status %d", code)
	}
	if hr.State != obs.HealthOK {
		t.Fatalf("healthy state = %q: %+v", hr.State, hr)
	}

	body, err := wire.EncodeBinary(opsUpload(2))
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
		t.Fatalf("pre-fault upload: status %d", resp.StatusCode)
	}

	st.InjectFault(fmt.Errorf("induced fsync failure"))

	var failing server.HealthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &failing); code != http.StatusServiceUnavailable {
		t.Fatalf("faulted /healthz: status %d, want 503", code)
	}
	if failing.State != obs.HealthFailing {
		t.Fatalf("faulted state = %q, want failing", failing.State)
	}
	var storeCheck *obs.HealthCheck
	for i := range failing.Checks {
		if failing.Checks[i].Component == "store" {
			storeCheck = &failing.Checks[i]
		}
	}
	if storeCheck == nil || storeCheck.State != obs.HealthFailing || len(storeCheck.Reasons) == 0 {
		t.Fatalf("store check after fault: %+v", storeCheck)
	}

	// The fault is sticky: ingest now fails and says so.
	resp2, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("upload succeeded on a faulted store")
	}
}

// TestOpsFaultedStoreUploadIs503AndRetried: a store that cannot journal
// answers /upload (and /forget) with 503, the status /healthz reports,
// so a client's retry policy retries it: MaxRetries 2 is three attempts.
func TestOpsFaultedStoreUploadIs503AndRetried(t *testing.T) {
	st := opsOpenDisk(t, t.TempDir())
	defer st.Close()
	srv, _ := opsLeader(t, st)
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/upload" {
			attempts.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	body, err := wire.EncodeBinary(opsUpload(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register(opsUpload(2)); err != nil {
		t.Fatal(err) // something for /forget to journal
	}
	st.InjectFault(fmt.Errorf("induced fsync failure"))
	for _, path := range []string{"/upload", "/forget?provider=alice"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s on a faulted store: %d %s, want 503", path, resp.StatusCode, msg)
		}
	}

	attempts.Store(0)
	c := client.New(ts.URL)
	c.MaxRetries, c.RetryDelay = 2, time.Millisecond
	if ids, err := c.Upload(opsUpload(2)); err == nil {
		t.Fatalf("upload to a faulted store acknowledged ids %v", ids)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("a client with MaxRetries 2 made %d attempts, want 3", n)
	}
}
