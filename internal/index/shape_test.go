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
// shows up here even when the tree stays valid.
func TestInsertShapeGolden(t *testing.T) {
	const (
		wantNodes, wantHeight     = 4759, 5
		wantSplits, wantReinserts = 5033, 1395
		wantLeafOrder             = 0x527e68ff39c7dc97
	)
	t.Run("rstar", func(t *testing.T) {
		x := insertShapeTree(t)
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

// shapeCorpus is the corpus of the shape pins: 50 000 hotspot entries
// at the default seed.
func shapeCorpus() []index.Entry {
	cfg := workload.DefaultConfig
	cfg.Distribution = workload.Hotspot
	return workload.Entries(cfg, 50_000)
}

// insertShapeTree builds the tree TestInsertShapeGolden pins: the shape
// corpus loaded 20 per InsertBatch, then every 7th entry removed in one
// RemoveBatch.
func insertShapeTree(t *testing.T) *index.RTree {
	t.Helper()
	entries := shapeCorpus()
	n := len(entries)
	var removed []index.Entry
	for i := 0; i < n; i += 7 {
		removed = append(removed, entries[i])
	}
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
	return x
}

// TestTreeDigestGolden pins every node of two trees, not only their leaf
// order: a digest of each node's slot count and MBR bits and each leaf
// slot's rectangle, depth first (rtree's Snapshot.ShapeDigest), of the
// tree TestInsertShapeGolden builds and of an STR bulk load of the same
// corpus. Both were taken from the tree with the 56-B node header, its
// R* split over sorted copies and its reflect-swapped STR sort; a
// change to the node layout, the writer or the packer that moves one
// slot or one bound shows up here.
func TestTreeDigestGolden(t *testing.T) {
	t.Run("InsertBatch", func(t *testing.T) {
		if got, want := index.ShapeDigest(insertShapeTree(t)), uint64(0xb9019bbbbc92d969); got != want {
			t.Fatalf("tree digest %#x, want %#x", got, want)
		}
	})
	t.Run("BulkLoadRTree", func(t *testing.T) {
		entries := shapeCorpus()
		x, err := index.BulkLoadRTree(len(entries), func(add func(*index.Entry) error) error {
			for i := range entries {
				if err := add(&entries[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := index.ShapeDigest(x), uint64(0x7650b8c65a8206be); got != want {
			t.Fatalf("tree digest %#x, want %#x", got, want)
		}
	})
}
