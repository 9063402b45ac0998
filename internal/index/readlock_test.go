package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fovr/internal/geo"
)

// TestTreeReadsTakeNoLocks pins that readers never touch the writer
// lock: with x.mu held by the test, Search, Visit and Nearest still
// return, and with the same answers they give while the lock is free —
// readers walk the published snapshot.
func TestTreeReadsTakeNoLocks(t *testing.T) {
	x := newRTree(t)
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
		nearest []Neighbor
	}
	read := func() answers {
		var a answers
		a.search = x.Search(q, 0, 86_400_000)
		x.Visit(q, 0, 86_400_000, city, func(e *Entry) float64 {
			a.visited = append(a.visited, e.ID)
			return math.Inf(1)
		})
		a.nearest = x.Nearest(city, 0, 86_400_000, 5, 0, nil)
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
