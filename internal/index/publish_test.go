package index_test

import (
	"math"
	"slices"
	"testing"

	"fovr/internal/index"
	"fovr/internal/workload"
)

// The publish rule decides when a snapshot is frozen, never what the
// tree becomes: the same 200 000 hotspot entries, 20 per InsertBatch,
// loaded once with a Visit before every batch (every batch publishes)
// and once with no reader (the first read publishes once), give the
// same node count, height, split count and leaf order, and both pass
// CheckInvariants.
func TestPublishRuleKeepsTreeShape(t *testing.T) {
	const n, batch = 200_000, 20
	entries := workload.Entries(workload.Config{Seed: 1, Distribution: workload.Hotspot}, n)
	type shape struct {
		nodes, height int
		splits        int64
		order         []uint64
		epoch         uint64
	}
	load := func(readEach bool) shape {
		x := index.NewRTree()
		for i := 0; i < n; i += batch {
			if readEach {
				rep := &entries[i].Rep
				x.Visit(rep.FoV.P, 10, 0, rep.StartMillis, rep.EndMillis, func(*index.Entry) float64 {
					return math.Inf(1)
				})
			}
			if err := x.InsertBatch(entries[i : i+batch]); err != nil {
				t.Fatal(err)
			}
		}
		s := shape{nodes: x.NodeCount(), height: x.Height(), splits: x.TreeStats().Splits, epoch: x.ReadEpoch()}
		x.Scan(func(e *index.Entry) bool {
			s.order = append(s.order, e.ID)
			return true
		})
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("readEach=%v: %v", readEach, err)
		}
		if len(s.order) != n {
			t.Fatalf("readEach=%v: Scan visits %d entries, want %d", readEach, len(s.order), n)
		}
		return s
	}
	eager, lazy := load(true), load(false)
	if eager.nodes != lazy.nodes || eager.height != lazy.height || eager.splits != lazy.splits {
		t.Fatalf("read before every batch: %d nodes, height %d, %d splits; no reader: %d, %d, %d",
			eager.nodes, eager.height, eager.splits, lazy.nodes, lazy.height, lazy.splits)
	}
	if !slices.Equal(eager.order, lazy.order) {
		t.Fatal("the two loads scan their entries in different leaf orders")
	}
	// The epoch counts publishes: NewRTree's, then one per batch a
	// reader looked before, or the first read's alone.
	if want := uint64(1 + n/batch); eager.epoch != want {
		t.Fatalf("read before every batch: epoch %d, want %d (one publish per batch)", eager.epoch, want)
	}
	if lazy.epoch != 2 {
		t.Fatalf("no reader: epoch %d, want 2 (the first read publishes once)", lazy.epoch)
	}
}

// An acknowledged batch is visible to any later read, even when no
// reader looked before it and the view was never published: a goroutine
// started after InsertBatch returns sees the whole batch, and the
// batches before it.
func TestReadAfterAckSeesBatch(t *testing.T) {
	const batch = 20
	entries := workload.Entries(workload.Config{Seed: 2, Distribution: workload.Hotspot}, 5*batch)
	for k := 1; k <= 5; k++ {
		x := index.NewRTree()
		for i := 0; i < k*batch; i += batch {
			if err := x.InsertBatch(entries[i : i+batch]); err != nil {
				t.Fatal(err)
			}
		}
		last := entries[(k-1)*batch : k*batch]
		seen := make(chan []uint64, 1)
		go func() {
			var ids []uint64
			for i := range last {
				rep := &last[i].Rep
				x.Visit(rep.FoV.P, 1, 0, rep.StartMillis, rep.EndMillis, func(e *index.Entry) float64 {
					if e.ID == last[i].ID {
						ids = append(ids, e.ID)
					}
					return math.Inf(1)
				})
			}
			seen <- append(ids, uint64(x.Len()))
		}()
		got := <-seen
		if n := len(got) - 1; n != batch || got[n] != uint64(k*batch) {
			t.Fatalf("after %d unread batches a new reader found %d of the last batch's %d entries and Len %d, want %d and %d",
				k, n, batch, got[n], batch, k*batch)
		}
	}
}
