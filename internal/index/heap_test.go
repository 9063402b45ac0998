package index_test

import (
	"runtime"
	"testing"

	"fovr/internal/index"
	"fovr/internal/workload"
)

// TestIndexHeapPerEntry pins what an indexed entry costs in heap: its
// 40-B leaf slot (id, start, position and heading as grid codes, a
// 32-bit duration and a source-table row — the provider and camera are
// kept once per distinct pair, not per entry), its share of the nodes
// above it (a 24-B header and one array of slots each), its share of the
// source table, and its bit in the id set (one 64-bit mask per 64 ids,
// well under 1 B an entry). 50 000 hotspot entries are loaded the two
// ways a server builds its index — uploads of 20 through InsertBatch,
// and a bootstrap's STR bulk load — and the live heap after a forced GC
// is divided by the entry count. Storing the whole 80-B Entry in the
// leaf, the 48-B slot with float64 position and heading, each leaf
// rectangle beside its slot, separate rectangle and child arrays in
// internal nodes, or a node header of two slice headers (56 B, in the
// 64-B size class: 54.9 and 48.7 B) fails the pins; so do an id → rect
// map, or the ids in a Go map (about 24 B an entry), or nodes of 16
// slots, the default M before it became 32 (twice the nodes: 50.8 and
// 46.0 B). This layout measures 47.0 and 43.0 B.
func TestIndexHeapPerEntry(t *testing.T) {
	if index.RaceEnabled {
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
		}, 49},
		{"BulkLoadRTree", func() (*index.RTree, error) {
			return index.BulkLoadRTree(0, n, func(add func(*index.Entry) error) error {
				for i := range entries {
					if err := add(&entries[i]); err != nil {
						return err
					}
				}
				return nil
			})
		}, 44.5},
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
				t.Fatalf("the index holds %.1f B per entry, want ≤ %g", perEntry, tc.limit)
			}
			runtime.KeepAlive(x)
		})
	}
}

// TestInsertBatchAllocPerEntry pins what loading costs in allocation,
// not only what stays: the benchmark corpus (200 000 hotspot entries)
// in uploads of 20 with no reader between them. No batch publishes, so
// a batch clones no node a batch before it wrote, and only a node that
// fills grows, to the capacity of the size class one more slot lands
// in. The writer keeps its descent path in scratch and interns an
// upload's shared source once. This path measures 545 B and 1.56
// allocations an entry at M = 32 (515 B and 1.99 at M = 16: fewer,
// larger nodes); growing by exactly one slot, a fresh path per insert
// and a map lookup per entry measured 709 B and 3.2 at M = 16. Publishing
// every batch — cloning each touched root-to-leaf path again —
// allocates about 2 430 B an entry.
func TestInsertBatchAllocPerEntry(t *testing.T) {
	if index.RaceEnabled {
		t.Skip("allocation pins are taken with the race detector off")
	}
	const n = 200_000
	entries := workload.Entries(workload.Config{Seed: 1, Distribution: workload.Hotspot}, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x := index.NewRTree()
	for i := 0; i < n; i += 20 {
		if err := x.InsertBatch(entries[i : i+20]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B allocated per entry, %.2f allocations", perEntry, float64(after.Mallocs-before.Mallocs)/n)
	if x.Len() != n {
		t.Fatalf("Len = %d, want %d", x.Len(), n)
	}
	if perEntry > 570 {
		t.Fatalf("loading allocates %.0f B per entry, want ≤ 570", perEntry)
	}
}
