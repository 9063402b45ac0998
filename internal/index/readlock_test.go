package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fovr/internal/geo"
)

// TestTreeReadsTakeNoLocks pins that a current view takes no lock: with
// x.mu held by the test, Search, Visit and a bounded Visit still return, and
// with the same answers they give while the lock is free — readers walk
// the published snapshot. (The first read, before the lock is taken,
// publishes the inserts no reader had seen.)
func TestTreeReadsTakeNoLocks(t *testing.T) {
	x := NewRTree()
	rng := rand.New(rand.NewSource(13))
	for id := uint64(1); id <= 300; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	q := geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
	type answers struct {
		search  []Entry
		visited []uint64
		nearest []Entry
	}
	read := func() answers {
		var a answers
		a.search = x.Search(q, 0, 86_400_000)
		x.Visit(city, 30_000, 0, 0, 86_400_000, func(e *Entry) float64 {
			a.visited = append(a.visited, e.ID)
			return math.Inf(1)
		})
		a.nearest = topK(x, city, 30_000, 0, 0, 86_400_000, 5, nil)
		return a
	}
	free := read()
	if len(free.search) != 300 || len(free.visited) != 300 || len(free.nearest) != 5 {
		t.Fatalf("lock-free reads: %d searched, %d visited, %d nearest; want 300, 300, 5",
			len(free.search), len(free.visited), len(free.nearest))
	}

	x.mu.Lock()
	done := make(chan answers, 1)
	go func() { done <- read() }()
	select {
	case held := <-done:
		x.mu.Unlock()
		if !reflect.DeepEqual(held, free) {
			t.Fatal("reads under a held writer lock answered differently from reads with it free")
		}
	case <-time.After(5 * time.Second):
		x.mu.Unlock()
		t.Fatal("reads blocked on the writer lock")
	}
}

// TestStaleReadWaitsForWriter pins the one case a read takes the writer
// lock: the view is stale (a batch no reader has seen), so the read
// publishes it under x.mu — with the lock held by the test it waits,
// and once the lock is free it returns the whole batch.
func TestStaleReadWaitsForWriter(t *testing.T) {
	x := NewRTree()
	rng := rand.New(rand.NewSource(17))
	batch := make([]Entry, 20)
	for i := range batch {
		batch[i] = randEntry(rng, uint64(i+1))
	}
	if err := x.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if !x.stale.Load() {
		t.Fatal("a batch no reader looked before published at once")
	}
	q := geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
	x.mu.Lock()
	done := make(chan []Entry, 1)
	go func() { done <- x.Search(q, 0, 86_400_000) }()
	select {
	case got := <-done:
		x.mu.Unlock()
		t.Fatalf("a read of a stale view returned %d entries with the writer lock held", len(got))
	case <-time.After(100 * time.Millisecond):
	}
	x.mu.Unlock()
	select {
	case got := <-done:
		if len(got) != len(batch) {
			t.Fatalf("the read after the lock was freed found %d entries, want the batch's %d", len(got), len(batch))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read did not return once the writer lock was free")
	}
	if x.stale.Load() {
		t.Fatal("the read left the view stale")
	}
}

// TestBatchAfterReadPublishes pins the other side of the publish rule:
// once a reader has loaded the view, the next mutation publishes at
// once, so while reads flow no read waits on the writer lock — with
// x.mu held by the test, a read returns, and sees the batch.
func TestBatchAfterReadPublishes(t *testing.T) {
	x := NewRTree()
	rng := rand.New(rand.NewSource(19))
	batch := func(first uint64) []Entry {
		out := make([]Entry, 20)
		for i := range out {
			out[i] = randEntry(rng, first+uint64(i))
		}
		return out
	}
	if err := x.InsertBatch(batch(1)); err != nil {
		t.Fatal(err)
	}
	if n := x.Len(); n != 20 {
		t.Fatalf("Len = %d, want 20", n)
	}
	if err := x.InsertBatch(batch(21)); err != nil {
		t.Fatal(err)
	}
	if x.stale.Load() {
		t.Fatal("a batch after a read left the view stale")
	}
	q := geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
	x.mu.Lock()
	done := make(chan int, 1)
	go func() { done <- len(x.Search(q, 0, 86_400_000)) }()
	select {
	case n := <-done:
		x.mu.Unlock()
		if n != 40 {
			t.Fatalf("the read found %d entries, want both batches' 40", n)
		}
	case <-time.After(5 * time.Second):
		x.mu.Unlock()
		t.Fatal("a read after a published batch blocked on the writer lock")
	}
}
