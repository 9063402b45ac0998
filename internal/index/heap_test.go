package index_test

import (
	"runtime"
	"testing"

	"fovr/internal/index"
	"fovr/internal/workload"
)

// TestIndexHeapPerEntry pins what an indexed entry costs in heap: its
// leaf slot (the 80-B Entry and nothing else), its share of the nodes
// above it, and its key in the id set. 50 000 hotspot entries are loaded
// the two ways a server builds its index — uploads of 20 through
// InsertBatch, and a bootstrap's STR bulk load — and the live heap
// after a forced GC is divided by the entry count. Provider strings are
// shared with the input and not counted. Storing each leaf rectangle
// beside its entry, or keeping an id → rect map, fails the pins (about
// 267 and 240 B per entry); they sit about 10 % above what this layout
// measures, 126.5 and 121 B.
func TestIndexHeapPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("byte pins are taken with the race detector off")
	}
	const n = 50_000
	cfg := workload.DefaultConfig
	cfg.Distribution = workload.Hotspot
	entries := workload.Entries(cfg, n)

	for _, tc := range []struct {
		name  string
		build func() (*index.RTree, error)
		limit float64
	}{
		{"InsertBatch", func() (*index.RTree, error) {
			x := index.NewRTree()
			var err error
			for i := 0; err == nil && i < n; i += 20 {
				err = x.InsertBatch(entries[i:min(i+20, n)])
			}
			return x, err
		}, 140},
		{"BulkLoadRTree", func() (*index.RTree, error) {
			return index.BulkLoadRTree(entries)
		}, 133},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			x, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			t.Logf("%.1f B of heap per entry (%d nodes)", perEntry, x.NodeCount())
			if x.Len() != n {
				t.Fatalf("Len = %d, want %d", x.Len(), n)
			}
			if perEntry > tc.limit {
				t.Fatalf("the index holds %.1f B per entry, want ≤ %.0f", perEntry, tc.limit)
			}
			runtime.KeepAlive(x)
		})
	}
}
