// Bootstrap end-to-end tests: a follower killed mid-bootstrap must
// resume segment-wise without refetching anything it already installed,
// one pushed past the leader's log must re-fetch only the windows that
// changed, and one on store.Mem must assemble the leader's visible set
// from its segments. The byte accounting is exact. Lives in the external
// test package because it drives real HTTP through internal/client.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

func tieredOpenDisk(t *testing.T, dir string) *store.Disk {
	t.Helper()
	st, err := store.Open(store.Options{
		Dir:                dir,
		CheckpointInterval: -1,
		Registry:           obs.NewRegistry(),
		SegmentWindow:      time.Minute,
		SegmentWindowAge:   time.Millisecond,
		CompactionInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tieredUpload spreads n representatives across the given epoch-near
// time window so a CompactNow seals them.
func tieredUpload(provider string, window int64, n int) wire.Upload {
	up := wire.Upload{Provider: provider, Reps: make([]segment.Representative, n)}
	for i := range up.Reps {
		start := window*60_000 + int64(i)*1000
		up.Reps[i] = segment.Representative{
			FoV:         fov.FoV{P: geo.Offset(opsCenter, float64(i*41%360), float64(3+i)), Theta: float64(i * 29 % 360)},
			StartMillis: start,
			EndMillis:   start + 500,
		}
	}
	return up
}

// killFetcher wraps the real HTTP replicator. It injects a failure on
// every FetchSegment after failAfter successes — the "process killed
// mid-bootstrap" stand-in — records the segments it fetched for exact
// accounting, and can hold the log tail (hold).
type killFetcher struct {
	*client.Replicator
	failAfter int // -1: never fail

	mu      sync.Mutex
	fetched []store.SegmentMeta
	bytes   int64
	gate    chan struct{}       // non-nil: Fetch waits for it to close
	held    chan replica.Cursor // receives the cursor of a held Fetch
}

func (k *killFetcher) FetchSegment(ctx context.Context, meta store.SegmentMeta) ([]byte, error) {
	k.mu.Lock()
	blocked := k.failAfter >= 0 && len(k.fetched) >= k.failAfter
	k.mu.Unlock()
	if blocked {
		return nil, errors.New("injected mid-bootstrap kill")
	}
	raw, err := k.Replicator.FetchSegment(ctx, meta)
	if err == nil {
		k.mu.Lock()
		k.fetched = append(k.fetched, meta)
		k.bytes += int64(len(raw))
		k.mu.Unlock()
	}
	return raw, err
}

func (k *killFetcher) Fetch(ctx context.Context, cur replica.Cursor, wait time.Duration) (*replica.Batch, error) {
	k.mu.Lock()
	gate, held := k.gate, k.held
	k.mu.Unlock()
	if gate != nil {
		select {
		case held <- cur:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return k.Replicator.Fetch(ctx, cur, wait)
}

// hold makes every later log-tail Fetch wait until release is called;
// held receives the cursor of the first one that waits.
func (k *killFetcher) hold() (held <-chan replica.Cursor, release func()) {
	gate, ch := make(chan struct{}), make(chan replica.Cursor, 1)
	k.mu.Lock()
	k.gate, k.held = gate, ch
	k.mu.Unlock()
	return ch, func() {
		k.mu.Lock()
		k.gate = nil
		k.mu.Unlock()
		close(gate)
	}
}

func (k *killFetcher) counts() (segments []store.SegmentMeta, bytes int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]store.SegmentMeta(nil), k.fetched...), k.bytes
}

func startTieredFollower(t *testing.T, st store.Store, leaderURL string, failAfter int) (*server.Server, *killFetcher, *replica.Follower) {
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
	kf := &killFetcher{Replicator: rep, failAfter: failAfter}
	fol, err := replica.Start(replica.Options{
		Fetch:    kf,
		Apply:    srv,
		Poll:     20 * time.Millisecond,
		Registry: srv.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachFollower(fol)
	return srv, kf, fol
}

// encoded serializes entries as an image, which orders them by id: the
// form two visible sets are compared in, since the journal quantizes
// what a leader's memtable holds in full precision (see DESIGN §8).
func encoded(t *testing.T, entries []index.Entry) []byte {
	t.Helper()
	img, _, err := store.EncodeSegment(0, entries)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// waitBootstraps polls until the follower has completed n bootstraps
// and is caught up.
func waitBootstraps(t *testing.T, fol *replica.Follower, n int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := fol.Status()
		if st.Bootstraps >= n && st.CaughtUp {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached %d bootstraps, caught up: %+v", n, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTieredBootstrapResumesWithoutRefetch is the acceptance test for
// segment-wise bootstrap resume: kill the follower after it has
// installed exactly one of the leader's sealed segments, restart it,
// and verify the second life fetches only the remaining segments —
// total bytes downloaded across both lives equal the manifest's total
// segment bytes exactly.
func TestTieredBootstrapResumesWithoutRefetch(t *testing.T) {
	// Leader: two sealed windows plus a memtable resident.
	leaderStore := tieredOpenDisk(t, t.TempDir())
	defer leaderStore.Close()
	leaderSrv, lts := opsLeader(t, leaderStore)
	for w, n := range map[int64]int{0: 8, 1: 5} {
		if _, err := leaderSrv.Register(tieredUpload("cold", w, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leaderStore.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := leaderSrv.Register(tieredUpload("hot", 2, 2)); err != nil {
		t.Fatal(err)
	}
	ms := leaderStore.ManifestSnapshot()
	if len(ms.Segments) != 2 {
		t.Fatalf("leader sealed %d segments, want 2", len(ms.Segments))
	}
	var totalSegBytes int64
	for _, m := range ms.Segments {
		totalSegBytes += m.Bytes
	}

	// Life 1: the fetcher dies on the second segment, forever. The
	// follower keeps retrying; exactly one segment ever lands.
	fdir := t.TempDir()
	fst := tieredOpenDisk(t, fdir)
	fsrv, kf1, fol1 := startTieredFollower(t, fst, lts.URL, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := 0
		for _, m := range ms.Segments {
			if fsrv.HasSegment(m.Window, m.Seq, m.CRC) {
				n++
			}
		}
		fetched, _ := kf1.counts()
		if n == 1 && len(fetched) >= 1 {
			break
		}
		if n > 1 {
			t.Fatalf("kill point leaked: follower holds %d segments", n)
		}
		if time.Now().After(deadline) {
			t.Fatal("first segment never installed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give the loop a few more rounds to prove the resume cursor holds:
	// retries must skip the installed segment (no second successful
	// fetch).
	time.Sleep(150 * time.Millisecond)
	fetched1, bytes1 := kf1.counts()
	if len(fetched1) != 1 {
		t.Fatalf("life 1 fetched %d segments, want exactly 1", len(fetched1))
	}
	if st := fol1.Status(); st.Bootstraps != 0 {
		t.Fatalf("life 1 completed a bootstrap through the kill: %+v", st)
	}
	fol1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: fresh process over the same data dir, healthy fetcher.
	fst2 := tieredOpenDisk(t, fdir)
	defer fst2.Close()
	fsrv2, kf2, fol2 := startTieredFollower(t, fst2, lts.URL, -1)
	defer fol2.Close()
	n := 0
	for _, m := range ms.Segments {
		if fsrv2.HasSegment(m.Window, m.Seq, m.CRC) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("restart lost the installed segment: %d present, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := fol2.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}

	fetched2, bytes2 := kf2.counts()
	if len(fetched2) != len(ms.Segments)-1 {
		t.Fatalf("life 2 fetched %d segments, want %d (resume must skip completed installs)",
			len(fetched2), len(ms.Segments)-1)
	}
	if bytes1+bytes2 != totalSegBytes {
		t.Fatalf("segment bytes across both lives = %d+%d, want exactly the manifest total %d",
			bytes1, bytes2, totalSegBytes)
	}
	if st := fol2.Status(); st.Bootstraps != 1 || st.State != "streaming" {
		t.Fatalf("life 2 status %+v, want one bootstrap, streaming", st)
	}

	// The replicated state matches the leader exactly.
	wantLen := leaderSrv.Index().Len()
	if got := fsrv2.Index().Len(); got != wantLen {
		t.Fatalf("follower index holds %d entries, leader %d", got, wantLen)
	}
	if !bytes.Equal(encoded(t, fst2.Entries()), encoded(t, leaderStore.Entries())) {
		t.Fatal("follower store's visible set differs from the leader's")
	}

	// And new leader writes still stream through post-bootstrap.
	if _, err := leaderSrv.Register(tieredUpload("tail", 3, 1)); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for fsrv2.Index().Len() != wantLen+1 {
		if time.Now().After(deadline) {
			t.Fatal("post-bootstrap tail record never replicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTailResetRebootstrapFetchesOnlyChangedSegments: a durable follower
// whose log cursor the leader checkpoints away re-bootstraps, skipping
// every segment it already holds and fetching only the window that
// changed.
func TestTailResetRebootstrapFetchesOnlyChangedSegments(t *testing.T) {
	leaderStore := tieredOpenDisk(t, t.TempDir())
	defer leaderStore.Close()
	leaderSrv, lts := opsLeader(t, leaderStore)
	for w, n := range map[int64]int{0: 6, 1: 5, 2: 4} {
		if _, err := leaderSrv.Register(tieredUpload("cold", w, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leaderStore.CompactNow(); err != nil {
		t.Fatal(err)
	}
	before := leaderStore.ManifestSnapshot()

	fst := tieredOpenDisk(t, t.TempDir())
	defer fst.Close()
	fsrv, kf, fol := startTieredFollower(t, fst, lts.URL, -1)
	defer fol.Close()
	waitBootstraps(t, fol, 1)
	if fetched, _ := kf.counts(); len(fetched) != len(before.Segments) {
		t.Fatalf("first bootstrap fetched %d segments, want %d", len(fetched), len(before.Segments))
	}

	// Hold the follower's tail at its cursor while the leader takes a
	// late arrival into window 1, re-seals it, and checkpoints the log
	// under that cursor away.
	held, release := kf.hold()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never came back for the log tail")
	}
	if _, err := leaderSrv.Register(tieredUpload("late", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := leaderStore.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := leaderSrv.Register(tieredUpload("hot", 5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := leaderStore.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := leaderStore.ManifestSnapshot()
	var changed []store.SegmentMeta
	for _, m := range after.Segments {
		if !fsrv.HasSegment(m.Window, m.Seq, m.CRC) {
			changed = append(changed, m)
		}
	}
	if len(changed) != 1 || changed[0].Window != 1 {
		t.Fatalf("leader changed segments %+v, want window 1 alone", changed)
	}
	release()
	waitBootstraps(t, fol, 2)

	fetched, _ := kf.counts()
	if got := fetched[len(before.Segments):]; !reflect.DeepEqual(got, changed) {
		t.Fatalf("re-bootstrap fetched %+v, want only %+v", got, changed)
	}
	skipped := fsrv.Registry().Counter("fovr_replica_segments_skipped_total").Value()
	if want := int64(len(after.Segments) - len(changed)); skipped != want {
		t.Fatalf("fovr_replica_segments_skipped_total = %d, want %d", skipped, want)
	}
	if !bytes.Equal(encoded(t, fst.Entries()), encoded(t, leaderStore.Entries())) {
		t.Fatal("follower store's visible set differs from the leader's")
	}
	if got, want := fsrv.Index().Len(), leaderSrv.Index().Len(); got != want {
		t.Fatalf("follower index holds %d entries, leader %d", got, want)
	}
}

// TestMemFollowerBootstrapsFromSegments: a follower on store.Mem
// bootstraps from a leader holding sealed segments, tombstones and
// memtable shadows by fetching every segment into RAM, and converges to
// the leader's visible set.
func TestMemFollowerBootstrapsFromSegments(t *testing.T) {
	dir := t.TempDir()
	leaderStore := tieredOpenDisk(t, dir)
	leaderSrv, _ := opsLeader(t, leaderStore)
	for w, n := range map[int64]int{0: 6, 1: 4} {
		if _, err := leaderSrv.Register(tieredUpload("cold", w, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leaderSrv.Register(tieredUpload("gone", 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := leaderStore.CompactNow(); err != nil {
		t.Fatal(err)
	}
	// Removing sealed entries leaves tombstones; reopening without a
	// checkpoint replays every record into the memtable, shadowing the
	// sealed copies.
	if _, err := leaderSrv.ForgetProvider("gone"); err != nil {
		t.Fatal(err)
	}
	if err := leaderStore.Close(); err != nil {
		t.Fatal(err)
	}
	leaderStore = tieredOpenDisk(t, dir)
	defer leaderStore.Close()
	leaderSrv, lts := opsLeader(t, leaderStore)
	if _, err := leaderSrv.Register(tieredUpload("hot", 4, 2)); err != nil {
		t.Fatal(err)
	}
	ms := leaderStore.ManifestSnapshot()
	if st := leaderStore.TieredStats(); st.Segments != 2 || st.Tombstones != 3 || st.MemtableEntries <= 2 {
		t.Fatalf("leader lacks segments, tombstones or shadows: %+v", st)
	}

	fsrv, kf, fol := startTieredFollower(t, store.NewMem(), lts.URL, -1)
	defer fol.Close()
	waitBootstraps(t, fol, 1)
	if fetched, _ := kf.counts(); len(fetched) != len(ms.Segments) {
		t.Fatalf("Mem follower fetched %d segments, want all %d", len(fetched), len(ms.Segments))
	}
	if !bytes.Equal(encoded(t, fsrv.Index().Entries()), encoded(t, leaderStore.Entries())) {
		t.Fatal("Mem follower's visible set differs from the leader's")
	}
}
