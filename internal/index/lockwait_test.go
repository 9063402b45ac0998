package index

import (
	"math/rand"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/obs"
)

// newInstrumentedRTree builds a tree whose writer lock is accounted
// under the server's "index.tree" class on a fresh registry.
func newInstrumentedRTree(t *testing.T) (*RTree, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	x := newRTree(t)
	x.SetLockClass(reg.LockClass("index.tree"))
	return x, reg
}

// TestTreeLockAccounting pins the write side of the tree lock's
// accounting: with every acquisition timed (rate 1), ingest and removal
// record one wait and one hold per acquisition.
func TestTreeLockAccounting(t *testing.T) {
	obs.SetLockSampleRate(1)
	defer obs.SetLockSampleRate(0)
	x, reg := newInstrumentedRTree(t)
	rng := rand.New(rand.NewSource(13))
	for id := uint64(1); id <= 300; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	wait := reg.NsHistogram(`fovr_lock_wait_ns{class="index.tree"}`)
	hold := reg.NsHistogram(`fovr_lock_hold_ns{class="index.tree"}`)
	ingest := wait.Count()
	if ingest != 300 || hold.Count() != ingest {
		t.Fatalf("300 inserts recorded %d waits and %d holds at rate 1", ingest, hold.Count())
	}
	if !x.Remove(1) || wait.Count() != ingest+1 || hold.Count() != ingest+1 {
		t.Fatalf("a removal recorded %d waits and %d holds, want 1 each", wait.Count()-ingest, hold.Count()-ingest)
	}
}

// TestTreeReadsTakeNoLocks pins the read side's absence from the tree
// lock's accounting: searches and nearest-neighbour queries record no
// acquisitions — readers walk the published snapshot and never touch the
// writer lock — and ingest after the read burst is still sampled.
func TestTreeReadsTakeNoLocks(t *testing.T) {
	obs.SetLockSampleRate(1)
	defer obs.SetLockSampleRate(0)
	x, reg := newInstrumentedRTree(t)
	rng := rand.New(rand.NewSource(13))
	for id := uint64(1); id <= 300; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	wait := reg.NsHistogram(`fovr_lock_wait_ns{class="index.tree"}`)
	ingest := wait.Count()
	if ingest == 0 {
		t.Fatal("ingest recorded no tree-lock acquisitions at rate 1")
	}
	q := geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
	for i := 0; i < 50; i++ {
		x.Search(q, 0, 86_400_000)
		x.Nearest(city, 0, 86_400_000, 5, 0, nil)
	}
	if got := wait.Count(); got != ingest {
		t.Fatalf("queries recorded %d tree-lock acquisitions; reads must not take the writer lock", got-ingest)
	}
	if err := x.Insert(randEntry(rng, 10_000)); err != nil {
		t.Fatal(err)
	}
	if wait.Count() != ingest+1 {
		t.Fatal("ingest stopped being sampled after the read burst")
	}
}

// TestTreeLockOffNoExtraAllocs pins the accounting's cost contract on
// the read path: with sampling off, an instrumented tree allocates
// exactly as much per search as an uninstrumented one.
func TestTreeLockOffNoExtraAllocs(t *testing.T) {
	obs.SetLockSampleRate(0)
	fill := func(x *RTree) *RTree {
		rng := rand.New(rand.NewSource(11))
		for id := uint64(1); id <= 500; id++ {
			if err := x.Insert(randEntry(rng, id)); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}
	plain := fill(newRTree(t))
	instr, _ := newInstrumentedRTree(t)
	fill(instr)
	q := geo.Rect{MinLat: 39.9, MaxLat: 40.1, MinLng: 116.2, MaxLng: 116.4}
	measure := func(x *RTree) float64 {
		return testing.AllocsPerRun(200, func() {
			x.Search(q, 0, 86_400_000)
		})
	}
	if base, got := measure(plain), measure(instr); got > base {
		t.Fatalf("sampling-off instrumented search allocates %.1f/op, uninstrumented %.1f/op", got, base)
	}
}
