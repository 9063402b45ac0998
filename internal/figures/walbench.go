package figures

import (
	"fmt"
	"os"
	"time"

	"fovr/internal/fov"
	"fovr/internal/obs"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// TableWALIngest measures what durability costs at the ingest path: the
// same upload stream is registered against an in-memory server and
// against -data-dir servers under each fsync policy, and the table
// reports wall-clock ingest time, throughput, the slowdown relative to
// memory, and the WAL bytes written. fsync=always pays one disk sync
// per upload — the price of "acknowledged means recoverable"; interval
// and never show how much of that price is the sync itself rather than
// the journaling.
func TableWALIngest(n int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Durable ingest throughput (%d entries, %d-entry uploads)", n, uploadLen),
		Columns: []string{"store", "ingest_ms", "kentries_per_s", "vs_memory", "wal_mb"},
	}
	batches := corpusBatches(n)
	uploads := make([]wire.Upload, len(batches))
	for i, b := range batches {
		u := wire.Upload{Provider: b[0].Provider, Reps: make([]segment.Representative, 0, len(b))}
		for _, e := range b {
			u.Reps = append(u.Reps, e.Rep)
		}
		uploads[i] = u
	}

	run := func(st store.Store) (time.Duration, error) {
		s, err := server.New(server.Config{
			Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
			Store:    st,
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, u := range uploads {
			if _, err := s.Register(u); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	memElapsed, err := run(store.NewMem())
	if err != nil {
		t.AddNote("memory run failed: %v", err)
		return t
	}
	row := func(name string, elapsed time.Duration, walBytes int64) {
		t.AddRow(name,
			f1(float64(elapsed.Milliseconds())),
			f1(float64(n)/elapsed.Seconds()/1000),
			fmt.Sprintf("%.2fx", elapsed.Seconds()/memElapsed.Seconds()),
			f1(float64(walBytes)/(1<<20)))
	}
	row("memory", memElapsed, 0)

	for _, policy := range []store.FsyncPolicy{store.FsyncNever, store.FsyncInterval, store.FsyncAlways} {
		dir, err := os.MkdirTemp("", "fovr-walbench-")
		if err != nil {
			t.AddNote("tempdir: %v", err)
			return t
		}
		st, err := store.Open(store.Options{
			Dir:                dir,
			Fsync:              policy,
			CheckpointInterval: -1,
			Registry:           obs.NewRegistry(),
		})
		if err != nil {
			os.RemoveAll(dir)
			t.AddNote("open %s: %v", policy, err)
			return t
		}
		elapsed, err := run(st)
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			t.AddNote("run %s: %v", policy, err)
			return t
		}
		if err := st.Close(); err != nil {
			t.AddNote("close %s: %v", policy, err)
		}
		var walBytes int64
		if des, err := os.ReadDir(dir); err == nil {
			for _, de := range des {
				if fi, err := de.Info(); err == nil {
					walBytes += fi.Size()
				}
			}
		}
		row("wal/fsync="+string(policy), elapsed, walBytes)
		os.RemoveAll(dir)
	}
	t.AddNote("one %d-entry upload per Register; fsync=always syncs the WAL before acknowledging each", uploadLen)
	t.AddNote("fsync=interval syncs every 100ms (bounded loss); never leaves syncing to the OS page cache")
	return t
}
