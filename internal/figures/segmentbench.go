package figures

import (
	"fmt"
	"os"
	"strings"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/segment"
	"fovr/internal/store"
)

// TableSegmentStorage prices the tiered store against the flat layout
// on the same corpus: ingest cost (the tier adds bookkeeping on the
// write path), the one-time cost of sealing every cold window, how
// much disk the sealed segments occupy, what a checkpoint writes once
// the cold mass lives in segments (incremental — only the memtable —
// versus the flat store's full state), and the cold boot that reads it
// all back (mmap versus heap reads for the segment files).
func TableSegmentStorage(n int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Tiered segment storage (%d cold + %d hot entries)", n, n/20),
		Columns: []string{"config", "ingest_ms", "kentries_per_s", "seal_ms",
			"segment_mb", "checkpoint_kb", "boot_ms"},
	}
	cold := corpusBatches(n)
	// The hot delta: entries in a window far past the corpus, still warm
	// when the checkpoint runs — the tiered checkpoint should cost
	// roughly these and nothing else.
	hotBase := time.Now().UnixMilli() + int64(365*24)*3_600_000
	hot := make([]index.Entry, n/20)
	for i := range hot {
		start := hotBase + int64(i)*2000
		hot[i] = index.Entry{
			ID:       uint64(n + i + 1),
			Provider: "hot-client",
			Rep: segment.Representative{
				FoV:         fov.FoV{P: geo.Offset(corpusCity, float64(i*31%360), float64(i%5000)), Theta: float64(i * 17 % 360)},
				StartMillis: start,
				EndMillis:   start + 4000,
			},
		}
	}

	run := func(name string, mutate func(*store.Options)) error {
		dir, err := os.MkdirTemp("", "fovr-segbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts := store.Options{
			Dir:                dir,
			Fsync:              store.FsyncNever,
			CheckpointInterval: -1,
			Registry:           obs.NewRegistry(),
		}
		mutate(&opts)
		st, err := store.Open(opts)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		start := time.Now()
		for _, b := range cold {
			if err := st.AppendRegister(b); err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
		}
		ingest := time.Since(start)

		start = time.Now()
		if err := st.CompactNow(); err != nil {
			return fmt.Errorf("seal: %w", err)
		}
		seal := time.Since(start)

		if err := st.AppendRegister(hot); err != nil {
			return fmt.Errorf("hot ingest: %w", err)
		}
		if err := st.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}

		var segBytes, cpBytes int64
		des, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, de := range des {
			fi, err := de.Info()
			if err != nil {
				continue
			}
			switch {
			case strings.HasSuffix(de.Name(), ".fovg"):
				segBytes += fi.Size()
			case strings.HasSuffix(de.Name(), ".fovs"):
				cpBytes += fi.Size()
			}
		}

		// Cold boot: recover the directory and materialize every entry —
		// the path a restart (or a promoted follower) actually pays.
		start = time.Now()
		st, err = store.Open(store.Options{
			Dir: dir, Fsync: opts.Fsync, CheckpointInterval: -1,
			Registry:         obs.NewRegistry(),
			SegmentWindow:    opts.SegmentWindow,
			SegmentWindowAge: opts.SegmentWindowAge, CompactionInterval: -1,
			SegmentNoMmap: opts.SegmentNoMmap, SegmentNoCompress: opts.SegmentNoCompress,
		})
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		recovered, err := st.ReadEntries()
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		got := len(recovered)
		boot := time.Since(start)
		if err := st.Close(); err != nil {
			return fmt.Errorf("reclose: %w", err)
		}
		if want := n + len(hot); got != want {
			return fmt.Errorf("boot recovered %d entries, want %d", got, want)
		}

		t.AddRow(name,
			f1(float64(ingest.Milliseconds())),
			f1(float64(n)/ingest.Seconds()/1000),
			f1(float64(seal.Milliseconds())),
			fmt.Sprintf("%.2f", float64(segBytes)/(1<<20)),
			f1(float64(cpBytes)/(1<<10)),
			f1(float64(boot.Milliseconds())))
		return nil
	}

	configs := []struct {
		name   string
		mutate func(*store.Options)
	}{
		{"flat", func(o *store.Options) {}},
		{"tiered/mmap", func(o *store.Options) {
			o.SegmentWindow = time.Hour
			o.SegmentWindowAge = time.Millisecond
			o.CompactionInterval = -1
		}},
		{"tiered/no-mmap", func(o *store.Options) {
			o.SegmentWindow = time.Hour
			o.SegmentWindowAge = time.Millisecond
			o.CompactionInterval = -1
			o.SegmentNoMmap = true
		}},
	}
	for _, c := range configs {
		if err := run(c.name, c.mutate); err != nil {
			t.AddNote("%s: %v", c.name, err)
			return t
		}
	}
	t.AddNote("checkpoint runs after sealing + a %d-entry hot delta: flat rewrites everything, tiered only the memtable", len(hot))
	t.AddNote("boot_ms = Open + Entries() on the resulting directory; tiered reads sealed windows from segment files")
	return t
}
