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
// split axis came to weigh time in commensurable units, and when the
// index came to hold positions on the grid: the pins are what the
// earlier code builds from this corpus rounded to the grid); a change
// to ChooseSubtree, the split or AdjustTree that alters one decision
// shows up here even when the tree stays valid. The M = 16 pins are
// those of the tree before the default M became 32; the default's were
// taken when it did.
func TestInsertShapeGolden(t *testing.T) {
	pins := []struct {
		name                      string
		m                         int // 0: the default
		wantNodes, wantHeight     int
		wantSplits, wantReinserts int64
		wantLeafOrder             uint64
	}{
		{"M16", 16, 4759, 5, 5033, 1395, 0x527e68ff39c7dc97},
		{"default", 0, 2283, 4, 2422, 1573, 0x557320063aa7ca47},
	}
	t.Run("rstar", func(t *testing.T) {
		for _, tc := range pins {
			t.Run(tc.name, func(t *testing.T) {
				x := insertShapeTree(t, index.NewRTreeM(tc.m))
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
				if x.NodeCount() != tc.wantNodes || x.Height() != tc.wantHeight ||
					st.Splits != tc.wantSplits || st.Reinserts != tc.wantReinserts || h.Sum64() != tc.wantLeafOrder {
					t.Fatalf("tree shape changed: want nodes %d, height %d, splits %d, reinserts %d, leaf order %#x",
						tc.wantNodes, tc.wantHeight, tc.wantSplits, tc.wantReinserts, tc.wantLeafOrder)
				}
			})
		}
	})
}

// shapeCorpus is the corpus of the shape pins: 50 000 hotspot entries
// at the default seed.
func shapeCorpus() []index.Entry {
	cfg := workload.DefaultConfig
	cfg.Distribution = workload.Hotspot
	return workload.Entries(cfg, 50_000)
}

// insertShapeTree builds the tree TestInsertShapeGolden pins in x: the
// shape corpus loaded 20 per InsertBatch, then every 7th entry removed
// in one RemoveBatch.
func insertShapeTree(t *testing.T, x *index.RTree) *index.RTree {
	t.Helper()
	entries := shapeCorpus()
	n := len(entries)
	var removed []index.Entry
	for i := 0; i < n; i += 7 {
		removed = append(removed, entries[i])
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
	return x
}

// TestTreeDigestGolden pins every node of two trees, not only their leaf
// order: a digest of each node's slot count and MBR bits and each leaf
// slot's rectangle, depth first (rtree's Snapshot.ShapeDigest), of the
// tree TestInsertShapeGolden builds and of an STR bulk load of the same
// corpus. The M = 16 digests were taken from the tree with the 56-B node
// header, its R* split over sorted copies and its reflect-swapped STR
// sort, the default's when the default M became 32; a change to the
// node layout, the writer or the packer that moves one slot or one
// bound shows up here.
func TestTreeDigestGolden(t *testing.T) {
	entries := shapeCorpus()
	produce := func(add func(*index.Entry) error) error {
		for i := range entries {
			if err := add(&entries[i]); err != nil {
				return err
			}
		}
		return nil
	}
	pins := []struct {
		name         string
		m            int // 0: the default
		insert, bulk uint64
	}{
		{"M16", 16, 0xb9019bbbbc92d969, 0x7650b8c65a8206be},
		{"default", 0, 0x13dcb42c1a4bf9f, 0x5e2517d5db0d89ed},
	}
	t.Run("InsertBatch", func(t *testing.T) {
		for _, tc := range pins {
			t.Run(tc.name, func(t *testing.T) {
				if got := index.ShapeDigest(insertShapeTree(t, index.NewRTreeM(tc.m))); got != tc.insert {
					t.Fatalf("tree digest %#x, want %#x", got, tc.insert)
				}
			})
		}
	})
	t.Run("BulkLoadRTree", func(t *testing.T) {
		for _, tc := range pins {
			t.Run(tc.name, func(t *testing.T) {
				x, err := index.BulkLoadRTreeM(tc.m, len(entries), produce)
				if err != nil {
					t.Fatal(err)
				}
				if got := index.ShapeDigest(x); got != tc.bulk {
					t.Fatalf("tree digest %#x, want %#x", got, tc.bulk)
				}
			})
		}
	})
}
