package index_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"fovr/internal/index"
	"fovr/internal/workload"
)

// TestInsertShapeGolden pins the exact tree that insertion and deletion
// build: 50 000 hotspot entries loaded 20 per InsertBatch (as uploads
// load them), then every 7th entry removed in one RemoveBatch
// (condensation and reinsertion). The node count, height, split and
// reinsert counters and a hash of the ids in leaf order were taken from
// the tree before the insert path was tuned (and again when the R*
// split axis came to weigh time in commensurable units); a change to
// ChooseSubtree, the split or AdjustTree that alters one decision shows
// up here even when the tree stays valid.
func TestInsertShapeGolden(t *testing.T) {
	const (
		n                         = 50_000
		wantNodes, wantHeight     = 4760, 5
		wantSplits, wantReinserts = 5033, 1390
		wantLeafOrder             = 0xb111cbae2edbff97
	)
	cfg := workload.DefaultConfig
	cfg.Distribution = workload.Hotspot
	entries := workload.Entries(cfg, n)
	var removed []index.Entry
	for i := 0; i < n; i += 7 {
		removed = append(removed, entries[i])
	}

	t.Run("rstar", func(t *testing.T) {
		x := index.NewRTree()
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
		if x.NodeCount() != wantNodes || x.Height() != wantHeight ||
			st.Splits != wantSplits || st.Reinserts != wantReinserts || h.Sum64() != wantLeafOrder {
			t.Fatalf("tree shape changed: want nodes %d, height %d, splits %d, reinserts %d, leaf order %#x",
				wantNodes, wantHeight, wantSplits, wantReinserts, uint64(wantLeafOrder))
		}
	})
}
