// End-to-end replication tests: a real leader serving /replicate over
// HTTP, a real follower pulling through client.Replicator into a real
// read-only server, both on durable stores. The kill idiom matches the
// store's durability tests: a "SIGKILL" abandons the process's objects
// without any shutdown and reopens the same data directory.
package replica_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/replica"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

var e2eCenter = geo.Point{Lat: 40.0013, Lng: 116.326}

func mkRep(p geo.Point, theta float64, start, end int64) segment.Representative {
	return segment.Representative{
		FoV:         fov.FoV{P: p, Theta: theta},
		StartMillis: start,
		EndMillis:   end,
	}
}

func openDisk(t *testing.T, dir string) *store.Disk {
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

func newLeader(t *testing.T, st store.Store) (*server.Server, *httptest.Server) {
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
	return srv, ts
}

// newFollower builds a read-only server on st and a follower pulling
// from leaderURL into it. Poll is kept short so tests converge fast.
func newFollower(t *testing.T, st store.Store, leaderURL string) (*server.Server, *replica.Follower) {
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
		Poll:     50 * time.Millisecond,
		Registry: srv.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachFollower(fol)
	return srv, fol
}

// sortedSnapshot serializes a server's entries as an image, which
// orders them by id — the byte-identical comparison form (index
// iteration order legitimately differs between index builds).
func sortedSnapshot(t *testing.T, s *server.Server) []byte {
	t.Helper()
	img, _, err := store.EncodeSegment(0, s.Index().Entries())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// waitConverged polls until the follower's state is byte-identical to
// the leader's. The leader must be quiescent.
func waitConverged(t *testing.T, leader, follower *server.Server, fol *replica.Follower) {
	t.Helper()
	want := sortedSnapshot(t, leader)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if bytes.Equal(sortedSnapshot(t, follower), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not converge: %d entries vs leader's %d (status %+v)",
				follower.Index().Len(), leader.Index().Len(), fol.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func e2eQueryIDs(t *testing.T, s *server.Server, q query.Query) []uint64 {
	t.Helper()
	ranked, err := s.Query(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(ranked))
	for i, r := range ranked {
		ids[i] = r.Entry.ID
	}
	// Ranking ties (equal distances) break by index iteration order,
	// which legitimately differs between a bulk-loaded and an
	// incrementally-built tree; parity is about the result set.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestReplicaConvergence is the acceptance test: a follower started
// from empty converges to byte-identical state with the leader under
// concurrent ingest, survives a mid-stream kill of the follower
// process, and answers queries that match the leader's.
func TestReplicaConvergence(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leaderStore := openDisk(t, leaderDir)
	leader, ts := newLeader(t, leaderStore)
	defer ts.Close()
	defer leaderStore.Close()

	fst := openDisk(t, followerDir)
	fsrv, fol := newFollower(t, fst, ts.URL)

	// Concurrent ingest: uploads land while the follower bootstraps and
	// tails, with a leader checkpoint mid-stream forcing a generation
	// rotation under the follower's cursor.
	const uploads, repsPer = 30, 4
	ingestDone := make(chan error, 1)
	go func() {
		for i := 0; i < uploads; i++ {
			up := wire.Upload{Provider: fmt.Sprintf("p%d", i%3), Reps: make([]segment.Representative, repsPer)}
			for j := range up.Reps {
				up.Reps[j] = mkRep(geo.Offset(e2eCenter, float64((i*repsPer+j)*7%360), float64(10+i%40)),
					float64((i*31+j)%360), int64(i)*1000, int64(i)*1000+5000)
			}
			if _, err := leader.Register(up); err != nil {
				ingestDone <- err
				return
			}
			if i == uploads/3 {
				if err := leaderStore.Checkpoint(); err != nil {
					ingestDone <- err
					return
				}
			}
		}
		ingestDone <- nil
	}()

	// Mid-stream kill: once the follower has applied something, abandon
	// its server and store with no shutdown (the loop is stopped — a
	// dead process pulls nothing — but nothing is flushed or closed).
	for fol.Status().AppliedRecords == 0 && fol.Status().Bootstraps == 0 {
		time.Sleep(time.Millisecond)
	}
	fol.Close()
	_ = fsrv // abandoned, never closed

	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	// One more upload after the kill so the restarted follower has
	// strictly newer records to fetch.
	if _, err := leader.Register(wire.Upload{Provider: "late", Reps: []segment.Representative{
		mkRep(geo.Offset(e2eCenter, 10, 15), 100, 50_000, 55_000),
	}}); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the follower's directory. Recovery must not lose
	// what the kill-point had journaled, and the fresh follower
	// re-bootstraps to the leader's full state.
	fst2 := openDisk(t, followerDir)
	defer fst2.Close()
	fsrv2, fol2 := newFollower(t, fst2, ts.URL)
	defer fol2.Close()
	waitConverged(t, leader, fsrv2, fol2)

	if got, want := fsrv2.Index().Len(), uploads*repsPer+1; got != want {
		t.Fatalf("converged follower holds %d entries, want %d", got, want)
	}

	// Query parity on the replicated prefix. The leader's index holds
	// what its journal does, on the grid, so answers agree even for an
	// entry on a query boundary (TestOffGridUploadAnswersAlike).
	for _, q := range []query.Query{
		{Center: e2eCenter, RadiusMeters: 30.5, StartMillis: 0, EndMillis: 60_000},
		{Center: geo.Offset(e2eCenter, 45, 25), RadiusMeters: 52.3, StartMillis: 5_000, EndMillis: 20_000},
		{Center: e2eCenter, RadiusMeters: 1e6, StartMillis: 0, EndMillis: 1 << 40},
	} {
		lids, fids := e2eQueryIDs(t, leader, q), e2eQueryIDs(t, fsrv2, q)
		if fmt.Sprint(lids) != fmt.Sprint(fids) {
			t.Fatalf("query %+v: leader %v, follower %v", q, lids, fids)
		}
	}

	// The follower's status reflects the catch-up.
	st := fol2.Status()
	if !st.CaughtUp || st.Bootstraps == 0 {
		t.Errorf("follower status after convergence: %+v", st)
	}
}

// An in-process upload off the grid (a camera of 30.123°, positions
// and headings between grid steps) answers the same /query from the
// durable leader that took it, from that leader after a restart, and
// from a follower fed by the leader's log: the leader's index holds the
// upload as its journal does, rounded to the grid.
func TestOffGridUploadAnswersAlike(t *testing.T) {
	leaderDir := t.TempDir()
	leader, lts := newLeader(t, openDisk(t, leaderDir))
	up := wire.Upload{Provider: "alice", Camera: fov.Camera{HalfAngleDeg: 30.123, RadiusMeters: 80.004}}
	for i := 0; i < 6; i++ {
		up.Reps = append(up.Reps, mkRep(geo.Offset(e2eCenter, float64(i)*61.3, 3.3+float64(i)*7.77),
			float64(i)*59.987+0.0049, int64(i)*1000, int64(i)*1000+4000))
	}
	if _, err := leader.Register(up); err != nil {
		t.Fatal(err)
	}
	fsrv, fol := newFollower(t, openDisk(t, t.TempDir()), lts.URL)
	defer fol.Close()
	waitConverged(t, leader, fsrv, fol)
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	// results returns the answer's ranked results, without the
	// elapsed time that follows them.
	results := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader([]byte(
			`{"startMillis":0,"endMillis":60000,"center":{"lat":40.0013,"lng":116.326},"radiusMeters":60,"maxResults":10}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d, %v: %s", resp.StatusCode, err, body)
		}
		end := bytes.Index(body, []byte(`,"elapsedMicros"`))
		if end < 0 {
			t.Fatalf("query answer without elapsedMicros: %s", body)
		}
		return body[:end]
	}
	want := results(lts.URL)
	if n := bytes.Count(want, []byte(`"id"`)); n != len(up.Reps) {
		t.Fatalf("the leader answers %d of the %d representatives: %s", n, len(up.Reps), want)
	}
	if got := results(fts.URL); !bytes.Equal(got, want) {
		t.Fatalf("follower answers\n%s\nleader answers\n%s", got, want)
	}

	// Restart: the leader is abandoned without shutdown and its
	// directory reopened.
	lts.Close()
	_, rts := newLeader(t, openDisk(t, leaderDir))
	defer rts.Close()
	if got := results(rts.URL); !bytes.Equal(got, want) {
		t.Fatalf("restarted leader answers\n%s\nbefore the restart\n%s", got, want)
	}
	if !bytes.Contains(want, []byte(`"halfAngleDeg":30.12,`)) {
		t.Fatalf("the answer does not hold the camera on the grid: %s", want)
	}
}

// checkedApplier records every error the follower's state sink
// returns, so a test can assert that none happened — a duplicate-id
// insert fails ApplyRegister or FinishBootstrap's index rebuild.
type checkedApplier struct {
	*server.Server
	mu   sync.Mutex
	errs []error
}

func (c *checkedApplier) note(err error) error {
	if err != nil {
		c.mu.Lock()
		c.errs = append(c.errs, err)
		c.mu.Unlock()
	}
	return err
}

func (c *checkedApplier) ApplyRegister(entries []index.Entry, trace string) error {
	return c.note(c.Server.ApplyRegister(entries, trace))
}

func (c *checkedApplier) ApplyRemove(ids []uint64, trace string) error {
	return c.note(c.Server.ApplyRemove(ids, trace))
}

func (c *checkedApplier) FinishBootstrap(ms store.ManifestSnapshot) error {
	return c.note(c.Server.FinishBootstrap(ms))
}

// TestFollowerBootstrapRacesCheckpoints starts a durable and an
// in-memory follower while the leader uploads into six hourly windows,
// forgets providers and checkpoints in a loop — so segments are
// superseded under the bootstrap's fetches and the WAL below each new
// base is deleted under its tail. Both followers converge to the
// leader's visible set byte for byte, and no apply, removal or bootstrap
// swap ever fails.
func TestFollowerBootstrapRacesCheckpoints(t *testing.T) {
	leaderStore := openDisk(t, t.TempDir())
	leader, ts := newLeader(t, leaderStore)
	defer ts.Close()
	defer leaderStore.Close()

	upload := func(i int) error {
		up := wire.Upload{Provider: fmt.Sprintf("p%d", i%7), Reps: make([]segment.Representative, 3)}
		for j := range up.Reps {
			start := int64(i%6)*3_600_000 + int64(i*3+j)*1000
			up.Reps[j] = mkRep(geo.Offset(e2eCenter, float64((i*3+j)*11%360), float64(5+i%50)),
				float64((i*17+j)%360), start, start+4000)
		}
		_, err := leader.Register(up)
		return err
	}
	for i := 0; i < 60; i++ {
		if err := upload(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := leaderStore.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	churn := make(chan error, 1)
	go func() {
		for i := 60; i < 400; i++ {
			if err := upload(i); err != nil {
				churn <- err
				return
			}
			if i%23 == 0 {
				if _, err := leader.ForgetProvider(fmt.Sprintf("p%d", i%7)); err != nil {
					churn <- err
					return
				}
			}
			if i%5 == 0 {
				if err := leaderStore.Checkpoint(); err != nil {
					churn <- err
					return
				}
			}
		}
		churn <- nil
	}()

	type follower struct {
		kind string
		srv  *checkedApplier
		fol  *replica.Follower
	}
	var followers []follower
	for i, st := range []store.Store{openDisk(t, t.TempDir()), store.NewMem()} {
		defer st.Close()
		srv, err := server.New(server.Config{
			Camera:    fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
			Store:     st,
			Registry:  obs.NewRegistry(),
			ReadOnly:  true,
			LeaderURL: ts.URL,
		})
		if err != nil {
			t.Fatal(err)
		}
		ca := &checkedApplier{Server: srv}
		rep := client.NewReplicator(ts.URL)
		rep.RetryDelay = 5 * time.Millisecond
		fol, err := replica.Start(replica.Options{
			Fetch: rep, Apply: ca, Poll: 20 * time.Millisecond, Registry: srv.Registry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fol.Close()
		followers = append(followers, follower{[]string{"durable", "in-memory"}[i], ca, fol})
	}
	if err := <-churn; err != nil {
		t.Fatal(err)
	}
	for _, f := range followers {
		waitConverged(t, leader, f.srv.Server, f.fol)
		st := f.fol.Status()
		if st.ApplyErrors != 0 || st.Bootstraps == 0 {
			t.Fatalf("follower status %+v", st)
		}
		f.srv.mu.Lock()
		errs := f.srv.errs
		f.srv.mu.Unlock()
		if len(errs) != 0 {
			t.Fatalf("%d state-sink errors, the first: %v", len(errs), errs[0])
		}
		t.Logf("%s follower: %d bootstraps, %d fetch errors, %d records applied",
			f.kind, st.Bootstraps, st.FetchErrors, st.AppliedRecords)
	}
}

// TestReplicaForgetNotResurrected is the privacy-critical case: a
// provider forgotten on the leader while the follower is down must not
// resurrect when that follower restarts from its durable directory and
// re-catches-up.
func TestReplicaForgetNotResurrected(t *testing.T) {
	leaderStore := openDisk(t, t.TempDir())
	leader, ts := newLeader(t, leaderStore)
	defer ts.Close()
	defer leaderStore.Close()

	if _, err := leader.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		mkRep(geo.Offset(e2eCenter, 180, 30), 0, 0, 5000),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Register(wire.Upload{Provider: "mallory", Reps: []segment.Representative{
		mkRep(geo.Offset(e2eCenter, 45, 25), 225, 0, 5000),
		mkRep(geo.Offset(e2eCenter, 90, 25), 270, 1000, 6000),
	}}); err != nil {
		t.Fatal(err)
	}

	followerDir := t.TempDir()
	fst := openDisk(t, followerDir)
	fsrv, fol := newFollower(t, fst, ts.URL)
	waitConverged(t, leader, fsrv, fol)
	if n := providerCount(fsrv, "mallory"); n != 2 {
		t.Fatalf("follower replicated %d mallory entries, want 2", n)
	}

	// Kill the follower, then forget mallory on the leader while it is
	// down. Checkpoint too, so the removal is not even in the shipped
	// log anymore — the restarted follower must get it via bootstrap.
	fol.Close()
	if removed, err := leader.ForgetProvider("mallory"); err != nil || removed != 2 {
		t.Fatalf("forget removed %d, err %v", removed, err)
	}
	if err := leaderStore.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fst2 := openDisk(t, followerDir)
	defer fst2.Close()
	if providerEntries(fst2.Entries(), "mallory") != 2 {
		t.Fatal("kill-point lost the replicated entries; harness is vacuous")
	}
	fsrv2, fol2 := newFollower(t, fst2, ts.URL)
	defer fol2.Close()
	waitConverged(t, leader, fsrv2, fol2)

	if n := providerCount(fsrv2, "mallory"); n != 0 {
		t.Fatalf("forgotten provider resurrected on restarted follower: %d entries", n)
	}
	// And the follower's own durable state dropped them too: a restart
	// without a leader must not bring them back either.
	if providerEntries(fst2.Entries(), "mallory") != 0 {
		t.Fatal("forgotten provider survives in the follower's journal")
	}
}

// TestReplicaRejectsMutations verifies the read replica's write fence
// over real HTTP: 409 with a JSON body naming the leader.
func TestReplicaRejectsMutations(t *testing.T) {
	leaderStore := openDisk(t, t.TempDir())
	_, ts := newLeader(t, leaderStore)
	defer ts.Close()
	defer leaderStore.Close()

	fsrv, fol := newFollower(t, store.NewMem(), ts.URL)
	defer fol.Close()
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	up, err := wire.EncodeBinary(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		mkRep(e2eCenter, 0, 0, 5000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, path, body string
	}{
		{"upload", http.MethodPost, "/upload", string(up)},
		{"forget", http.MethodPost, "/forget?provider=alice", ""},
	} {
		req, err := http.NewRequest(tc.method, fts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s on replica: status %d, want 409 (body %s)", tc.name, resp.StatusCode, body)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s on replica: non-JSON error body %q: %v", tc.name, body, err)
		}
		if er.Leader != ts.URL {
			t.Fatalf("%s on replica: error names leader %q, want %q", tc.name, er.Leader, ts.URL)
		}
	}

	// The read path stays open.
	resp, err := http.Get(fts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || !st.ReadOnly || st.Leader != ts.URL {
		t.Fatalf("replica stats = %+v, err %v", st, err)
	}
	if st.Replication == nil {
		t.Fatal("replica stats lack the replication block")
	}
}

// TestReplicaFailoverByRestart: a durable replica restarted without a
// leader serves its replicated state writable, with id assignment
// resuming past every replicated id.
func TestReplicaFailoverByRestart(t *testing.T) {
	leaderStore := openDisk(t, t.TempDir())
	leader, ts := newLeader(t, leaderStore)
	defer ts.Close()
	defer leaderStore.Close()
	ids, err := leader.Register(wire.Upload{Provider: "alice", Reps: []segment.Representative{
		mkRep(geo.Offset(e2eCenter, 180, 30), 0, 0, 5000),
		mkRep(geo.Offset(e2eCenter, 90, 40), 270, 1000, 6000),
	}})
	if err != nil {
		t.Fatal(err)
	}

	followerDir := t.TempDir()
	fst := openDisk(t, followerDir)
	fsrv, fol := newFollower(t, fst, ts.URL)
	waitConverged(t, leader, fsrv, fol)
	fol.Close() // leader lost; replica abandoned without shutdown

	// Promote: reopen the directory as a plain writable server.
	pst := openDisk(t, followerDir)
	defer pst.Close()
	promoted, err := server.New(server.Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Store:    pst,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := promoted.Index().Len(); got != 2 {
		t.Fatalf("promoted replica serves %d entries, want 2", got)
	}
	newIDs, err := promoted.Register(wire.Upload{Provider: "bob", Reps: []segment.Representative{
		mkRep(e2eCenter, 0, 2000, 7000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if newIDs[0] <= old {
			t.Fatalf("promoted id %d collides with replicated id %d", newIDs[0], old)
		}
	}
}

func providerCount(s *server.Server, provider string) int {
	return providerEntries(s.Index().Entries(), provider)
}

func providerEntries(entries []index.Entry, provider string) int {
	n := 0
	for _, e := range entries {
		if e.Provider == provider {
			n++
		}
	}
	return n
}
