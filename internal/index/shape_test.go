package index_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"fovr/internal/index"
	"fovr/internal/rtree"
	"fovr/internal/workload"
)

// TestInsertShapeGolden pins the exact tree that insertion and deletion
// build, under each split heuristic: 50 000 hotspot entries loaded 20 per
// InsertBatch (as uploads load them), then every 7th entry removed in one
// RemoveBatch (condensation and reinsertion). The node count, height,
// split and reinsert counters and a hash of the ids in leaf order were
// taken from the tree before the insert path was tuned (the R* rows when
// its split axis came to weigh time in commensurable units); a change to
// ChooseSubtree, a split or AdjustTree that alters one decision shows up
// here even when the tree stays valid. Options{} must build the R* tree.
func TestInsertShapeGolden(t *testing.T) {
	const n = 50_000
	cfg := workload.DefaultConfig
	cfg.Distribution = workload.Hotspot
	entries := workload.Entries(cfg, n)
	var removed []index.Entry
	for i := 0; i < n; i += 7 {
		removed = append(removed, entries[i])
	}

	for _, tc := range []struct {
		name              string
		opts              rtree.Options
		nodes, height     int
		splits, reinserts int64
		leafOrder         uint64
	}{
		{"quadratic", rtree.Options{Split: rtree.QuadraticSplit}, 4785, 5, 5137, 1785, 0xe0be28cc7748f31f},
		{"linear", rtree.Options{Split: rtree.LinearSplit}, 4792, 5, 5184, 1985, 0xee2432800c4378bb},
		// R* with time weighted in ChooseSplitAxis; the default split.
		{"rstar", rtree.Options{Split: rtree.RStarSplit}, 4760, 5, 5033, 1390, 0xb111cbae2edbff97},
		{"default", rtree.Options{}, 4760, 5, 5033, 1390, 0xb111cbae2edbff97},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, err := index.NewRTree(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 20 {
				if err := x.InsertBatch(entries[i:min(i+20, n)]); err != nil {
					t.Fatal(err)
				}
			}
			if got := x.RemoveBatch(removed); got != len(removed) {
				t.Fatalf("RemoveBatch removed %d, want %d", got, len(removed))
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			x.Scan(func(e *index.Entry) bool {
				binary.LittleEndian.PutUint64(buf[:], e.ID)
				h.Write(buf[:])
				return true
			})
			st := x.TreeStats()
			t.Logf("nodes %d, height %d, splits %d, reinserts %d, leaf order %#x",
				x.NodeCount(), x.Height(), st.Splits, st.Reinserts, h.Sum64())
			if x.NodeCount() != tc.nodes || x.Height() != tc.height ||
				st.Splits != tc.splits || st.Reinserts != tc.reinserts || h.Sum64() != tc.leafOrder {
				t.Fatalf("tree shape changed: want nodes %d, height %d, splits %d, reinserts %d, leaf order %#x",
					tc.nodes, tc.height, tc.splits, tc.reinserts, tc.leafOrder)
			}
		})
	}
}
