package figures

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// TableReplicaLag measures what a read replica costs and how far it
// trails the leader. Two phases against the same leader: "bootstrap"
// starts an empty follower against a leader already holding n entries
// and times the bootstrap catch-up; "live-tail" then ingests another n
// entries while the follower tails the WAL, sampling its reported lag
// throughout. The lag column is the paper-facing number: a staleness
// bound for queries answered by the replica.
func TableReplicaLag(n int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Replication catch-up and lag (%d entries per phase, %d-entry uploads)", n, uploadLen),
		Columns: []string{"phase", "entries", "elapsed_ms", "kentries_per_s", "max_lag_kb", "bootstraps"},
	}
	toUploads := func(lo int) []wire.Upload {
		batches := corpusBatches(n)
		uploads := make([]wire.Upload, len(batches))
		for i, b := range batches {
			u := wire.Upload{Provider: fmt.Sprintf("%s-%d", b[0].Provider, lo), Reps: make([]segment.Representative, 0, len(b))}
			for _, e := range b {
				u.Reps = append(u.Reps, e.Rep)
			}
			uploads[i] = u
		}
		return uploads
	}

	leaderDir, err := os.MkdirTemp("", "fovr-replbench-leader-")
	if err != nil {
		t.AddNote("tempdir: %v", err)
		return t
	}
	defer os.RemoveAll(leaderDir)
	followerDir, err := os.MkdirTemp("", "fovr-replbench-follower-")
	if err != nil {
		t.AddNote("tempdir: %v", err)
		return t
	}
	defer os.RemoveAll(followerDir)

	openDisk := func(dir string) (*store.Disk, error) {
		return store.Open(store.Options{
			Dir:                dir,
			Fsync:              store.FsyncNever,
			CheckpointInterval: -1,
			Registry:           obs.NewRegistry(),
		})
	}
	camera := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

	lst, err := openDisk(leaderDir)
	if err != nil {
		t.AddNote("open leader store: %v", err)
		return t
	}
	defer lst.Close()
	leader, err := server.New(server.Config{Camera: camera, Store: lst, Registry: obs.NewRegistry()})
	if err != nil {
		t.AddNote("leader server: %v", err)
		return t
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	ingest := func(uploads []wire.Upload) error {
		for _, u := range uploads {
			if _, err := leader.Register(u); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1: the leader holds n entries before the follower exists, so
	// the follower's entire catch-up is one bootstrap.
	if err := ingest(toUploads(0)); err != nil {
		t.AddNote("leader preload: %v", err)
		return t
	}
	fst, err := openDisk(followerDir)
	if err != nil {
		t.AddNote("open follower store: %v", err)
		return t
	}
	defer fst.Close()
	follower, err := server.New(server.Config{
		Camera: camera, Store: fst, Registry: obs.NewRegistry(),
		ReadOnly: true, LeaderURL: ts.URL,
	})
	if err != nil {
		t.AddNote("follower server: %v", err)
		return t
	}
	start := time.Now()
	fol, err := replica.Start(replica.Options{
		Fetch:    client.NewReplicator(ts.URL),
		Apply:    follower,
		Poll:     10 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.AddNote("start follower: %v", err)
		return t
	}
	defer fol.Close()

	// converged waits until the follower holds want entries with zero
	// reported lag, sampling the lag gauge on every poll.
	converged := func(want int, deadline time.Duration) (time.Duration, int64, error) {
		begin := time.Now()
		var maxLag int64
		for {
			st := fol.Status()
			if st.LagBytes > maxLag {
				maxLag = st.LagBytes
			}
			if st.CaughtUp && follower.Index().Len() == want {
				return time.Since(begin), maxLag, nil
			}
			if time.Since(begin) > deadline {
				return 0, maxLag, fmt.Errorf("follower stuck at %d/%d entries (state %s, lastErr %q)",
					follower.Index().Len(), want, st.State, st.LastError)
			}
			time.Sleep(time.Millisecond)
		}
	}

	row := func(phase string, elapsed time.Duration, maxLag int64) {
		st := fol.Status()
		t.AddRow(phase,
			fmt.Sprint(follower.Index().Len()),
			f1(float64(elapsed.Milliseconds())),
			f1(float64(n)/elapsed.Seconds()/1000),
			f1(float64(maxLag)/1024),
			fmt.Sprint(st.Bootstraps))
	}

	if _, _, err := converged(n, 2*time.Minute); err != nil {
		t.AddNote("bootstrap: %v", err)
		return t
	}
	row("bootstrap", time.Since(start), 0)

	// Phase 2: the follower tails live WAL appends while the leader
	// ingests a second corpus. Lag is sampled from the follower's own
	// status between applies.
	start = time.Now()
	if err := ingest(toUploads(1)); err != nil {
		t.AddNote("live ingest: %v", err)
		return t
	}
	_, maxLag, err := converged(2*n, 2*time.Minute)
	if err != nil {
		t.AddNote("live-tail: %v", err)
		return t
	}
	row("live-tail", time.Since(start), maxLag)

	t.AddNote("bootstrap ships the leader's manifest and each sealed segment the follower lacks, then the WAL from the manifest's base generation; live-tail ships verbatim WAL frames with a %v poll", 10*time.Millisecond)
	t.AddNote("max_lag_kb is the largest leader-head minus follower-cursor gap the follower observed; 0.0 means every fetch drained the tail")
	t.AddNote("Expectation: live-tail lag stays within a few WAL appends (KB, not MB) — replica staleness is bounded by poll latency, not corpus size")
	return t
}
