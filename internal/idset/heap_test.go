package idset

import (
	"runtime"
	"testing"
)

// settledHeap runs the collector until the live heap stops falling and
// returns it, so memory a previous step dropped is not still being freed
// when the sample is taken.
func settledHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for i := 0; i < 10; i++ {
		last := ms.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= last {
			break
		}
	}
	return ms.HeapAlloc
}

// TestHeapPerID pins what an id costs in a Set and in a Map, at 200 000
// ids in two layouts. Dense — ids handed out in one run, as the server
// does — costs a mask bit plus a share of the page's directory slot
// (and, in a Map, a 1-B offset: the i-th id's value is i, so a page's
// values span 63, close together as the windows or generations of
// adjacent ids are; an 8-B value per id fails the pin). Sparse — one
// live id per 64-id page, what a table whose ids were mostly deleted
// comes to — costs a whole page per id; the pins keep that within 2–3×
// of a Go map slot (about 24 B for map[uint64]struct{}, 30 B for
// map[uint64]int64).
func TestHeapPerID(t *testing.T) {
	if raceEnabled {
		t.Skip("byte pins are taken with the race detector off")
	}
	const n = 200_000
	for _, tc := range []struct {
		layout         string
		id             func(i uint64) uint64
		setMax, mapMax float64
	}{
		{"dense", func(i uint64) uint64 { return 1<<40 + i }, 1, 2.5},
		{"one per page", func(i uint64) uint64 { return i<<6 | i%64 }, 48, 90},
	} {
		t.Run(tc.layout, func(t *testing.T) {
			before := settledHeap()
			var s Set
			for i := uint64(0); i < n; i++ {
				s.Add(tc.id(i))
			}
			mid := settledHeap()
			var m Map
			for i := uint64(0); i < n; i++ {
				m.Put(tc.id(i), int64(i))
			}
			after := settledHeap()
			setPer := (float64(mid) - float64(before)) / n
			mapPer := (float64(after) - float64(mid)) / n
			t.Logf("Set %.2f B per id, Map %.2f B per id", setPer, mapPer)
			if s.Len() != n || m.Len() != n {
				t.Fatalf("Len = %d, %d; want %d", s.Len(), m.Len(), n)
			}
			if setPer > tc.setMax {
				t.Errorf("the Set holds %.2f B per id, want ≤ %g", setPer, tc.setMax)
			}
			if mapPer > tc.mapMax {
				t.Errorf("the Map holds %.2f B per id, want ≤ %g", mapPer, tc.mapMax)
			}
			runtime.KeepAlive(&s)
			runtime.KeepAlive(&m)
		})
	}
}
