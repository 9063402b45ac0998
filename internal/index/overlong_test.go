package index

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/segment"
)

// overLongSpans are the intervals around a slot's 32-bit duration that
// the over-long tests draw: one short of the sentinel (stored in the
// slot), the sentinel length itself and one past it (their ends live in
// source rows), and the half of int64 a bad clock can claim. Each maps a
// start to the interval drawn from it.
var overLongSpans = []struct {
	name string
	span func(start int64) (int64, int64)
}{
	{"2^32-2ms", func(s int64) (int64, int64) { return s, s + 1<<32 - 2 }},
	{"2^32-1ms", func(s int64) (int64, int64) { return s, s + 1<<32 - 1 }},
	{"2^32ms", func(s int64) (int64, int64) { return s, s + 1<<32 }},
	{"halfInt64", func(int64) (int64, int64) { return math.MinInt64 / 2, math.MaxInt64 / 2 }},
}

// byID indexes entries by id.
func byID(entries []Entry) map[uint64]Entry {
	out := make(map[uint64]Entry, len(entries))
	for _, e := range entries {
		out[e.ID] = e
	}
	return out
}

// Over-long intervals round-trip through every RTree path exactly as
// the Linear oracle holds them. Each case stores 24 entries on that
// span (starts 1 s apart; on the int64 half all share the one interval)
// beside 24 ordinary ones, from three providers with and without a
// camera, so slots with and without a row end alternate under one walk.
// Both builds — InsertBatch and BulkLoadRTree — are read through Visit,
// Nearest, Scan and Entries, then lose half their entries through
// RemoveBatch and are read again. The query windows sit on the spans'
// starts and ends; on the int64 half, whose instants float64 rounds to
// 1 024 ms, they keep 2^20 ms away so the tree's float box and the
// oracle's integer test cannot disagree.
func TestOverLongIntervalsRoundTrip(t *testing.T) {
	for _, tc := range overLongSpans {
		t.Run(tc.name, func(t *testing.T) {
			var entries []Entry
			for i := 0; i < 48; i++ {
				start := int64(i-24) * 1000
				end := start + int64(i%7)*997
				if i%2 == 0 {
					start, end = tc.span(start)
				}
				e := Entry{
					ID:       uint64(i + 1),
					Provider: fmt.Sprintf("phone-%d", i%3),
					Rep: segment.Representative{
						FoV:         fovAt(geo.Offset(city, float64(i)*37, float64(i%11)*90), float64(i)*7),
						StartMillis: start,
						EndMillis:   end,
					},
				}
				if i%4 < 2 {
					e.Camera = fov.Camera{HalfAngleDeg: 20, RadiusMeters: 80}
				}
				entries = append(entries, e)
			}
			gap := int64(1)
			if tc.name == "halfInt64" {
				gap = 1 << 20
			}
			s0, e0 := entries[0].Rep.StartMillis, entries[0].Rep.EndMillis
			windows := [][2]int64{
				{math.MinInt64, math.MaxInt64},
				{0, 0},
				{s0 - gap, s0 - gap},
				{e0 - gap, e0 - gap},
				{e0, e0},
				{e0 + gap, e0 + gap},
				{e0 + gap, e0 + 3*gap + 2000},
				{e0 - 10_000, e0 + 10_000},
			}

			lin := NewLinear()
			if err := lin.InsertBatch(entries); err != nil {
				t.Fatal(err)
			}
			// The oracle holds what was inserted, on the grid; every
			// read below compares against it.
			for id, e := range byID(lin.Entries()) {
				if want := entries[id-1].OnGrid(); e != want {
					t.Fatalf("Linear holds id %d as %+v, want %+v", id, e, want)
				}
			}
			inserted := NewRTree()
			if err := inserted.InsertBatch(entries); err != nil {
				t.Fatal(err)
			}
			bulk, err := bulkLoad(entries)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[source]bool)
			for i := range entries {
				want[sourceKey(&entries[i])] = true
			}
			gone := entries[:0:0]
			for i := range entries {
				if i%4 == 0 || i%4 == 1 {
					gone = append(gone, entries[i])
				}
			}
			for name, x := range map[string]*RTree{"InsertBatch": inserted, "BulkLoadRTree": bulk} {
				if n := len(x.current().rows); n != len(want) {
					t.Fatalf("%s: %d source rows, want %d", name, n, len(want))
				}
				checkOverLongReads(t, name, x, lin, windows)
				if n := x.RemoveBatch(gone); n != len(gone) {
					t.Fatalf("%s: RemoveBatch removed %d of %d", name, n, len(gone))
				}
			}
			lin.RemoveBatch(gone)
			for name, x := range map[string]*RTree{"InsertBatch": inserted, "BulkLoadRTree": bulk} {
				checkOverLongReads(t, name+" after RemoveBatch", x, lin, windows)
			}
		})
	}
}

// checkOverLongReads compares every read of x against lin: the stored
// entries through Entries and Scan, each window through Visit, and each
// window's five nearest through Nearest, with and without a radius.
func checkOverLongReads(t *testing.T, name string, x *RTree, lin *Linear, windows [][2]int64) {
	t.Helper()
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	stored := byID(lin.Entries())
	got := byID(x.Entries())
	if len(got) != len(stored) {
		t.Fatalf("%s: Entries has %d, want %d", name, len(got), len(stored))
	}
	for id, e := range stored {
		if got[id] != e {
			t.Fatalf("%s: id %d reads back as %+v, want %+v", name, id, got[id], e)
		}
	}
	scanned := 0
	x.Scan(func(e *Entry) bool {
		if *e != stored[e.ID] {
			t.Fatalf("%s: Scan hands id %d as %+v, want %+v", name, e.ID, *e, stored[e.ID])
		}
		scanned++
		return true
	})
	if scanned != len(stored) {
		t.Fatalf("%s: Scan saw %d, want %d", name, scanned, len(stored))
	}
	area := geo.RectAround(city, 6000) // holds every entry, all within 5 km
	for _, w := range windows {
		var hits []Entry
		x.Visit(city, 6000, 0, w[0], w[1], func(e *Entry) float64 {
			if *e != stored[e.ID] {
				t.Fatalf("%s: Visit%v hands id %d as %+v, want %+v", name, w, e.ID, *e, stored[e.ID])
			}
			hits = append(hits, *e)
			return math.Inf(1)
		})
		if g, l := ids(hits), ids(lin.Search(area, w[0], w[1])); fmt.Sprint(g) != fmt.Sprint(l) {
			t.Fatalf("%s: Visit%v = %v, linear %v", name, w, g, l)
		}
		for _, reach := range []float64{6000, 600} {
			g, l := topK(x, city, reach, 0, w[0], w[1], 5, nil), topK(lin, city, reach, 0, w[0], w[1], 5, nil)
			if !reflect.DeepEqual(g, l) {
				t.Fatalf("%s: top 5 within %v m over %v = %v, linear %v", name, reach, w, g, l)
			}
		}
	}
}

// An over-long entry is removed only under the end its slot's row
// holds: the same id under another end is skipped, and removal interns
// nothing, so the table does not grow.
func TestRemoveOverLongLooksUpRow(t *testing.T) {
	start, end := overLongSpans[2].span(5_000)
	e := Entry{ID: 7, Provider: "phone", Rep: segment.Representative{FoV: fovAt(city, 90), StartMillis: start, EndMillis: end}}
	x := NewRTree()
	if err := x.Insert(e); err != nil {
		t.Fatal(err)
	}
	other := e
	other.Rep.EndMillis++
	if n := x.RemoveBatch([]Entry{other}); n != 0 {
		t.Fatalf("removed %d entries under an end never stored", n)
	}
	if n := len(x.current().rows); n != 1 {
		t.Fatalf("a removal grew the source table to %d rows", n)
	}
	if n := x.RemoveBatch([]Entry{e}); n != 1 || x.Len() != 0 {
		t.Fatalf("removed %d, Len %d: the stored over-long entry is not removable", n, x.Len())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants reads every over-long slot's end from its row: a row
// whose end lies less than the sentinel past the slot's start is
// reported.
func TestCheckInvariantsCatchesShortOverLongRow(t *testing.T) {
	start, end := overLongSpans[1].span(0)
	x := NewRTree()
	if err := x.Insert(Entry{ID: 1, Rep: segment.Representative{FoV: fovAt(city, 0), StartMillis: start, EndMillis: end}}); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Move the row's end, and its key with it, so that only the
	// sentinel rule is broken.
	src := &x.src
	delete(src.index, src.rows[0])
	src.rows[0].end = start + overLong - 1
	src.index[src.rows[0]] = 0
	if err := x.CheckInvariants(); err == nil {
		t.Fatal("an over-long slot whose row ends short of the sentinel went unnoticed")
	}
}

// ownRowEntry is the entry with the given id in the row-reclaiming
// tests: over-long, with an end no other id shares, so every entry has
// a source row of its own — what uploads from a device whose clock
// reads Start = 0 bring. A pure function of the id, so a reader can
// tell what every materialised entry must be.
func ownRowEntry(id uint64) Entry {
	start := int64(id) * 1000
	return Entry{
		ID:       id,
		Provider: fmt.Sprintf("phone-%d", id%7),
		Rep: segment.Representative{
			FoV:         fovAt(geo.Offset(city, float64(id%360), float64(id%50)*40), float64(id%360)),
			StartMillis: start,
			EndMillis:   start + overLong + int64(id),
		},
	}
}

// ownRowBatch returns the entries with ids [lo, lo+n).
func ownRowBatch(lo uint64, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = ownRowEntry(lo + uint64(i))
	}
	return out
}

// What an over-long entry leaves behind once it is removed: its row
// dies with it, and the rows of one round of uploads are reused by the
// next, so repeated upload-and-forget from a bad clock holds the table
// at the peak the live entries need, and the heap does not grow from
// round to round. 10 000 such entries are inserted 20 per InsertBatch
// and removed in one RemoveBatch, five times over. A table that keeps
// every row it ever made grows by 10 000 rows a round, about 100 B of
// heap an entry (the 40-B row and its map entry).
func TestOverLongRowsReclaimed(t *testing.T) {
	const n, rounds = 10_000, 5
	x := NewRTree()
	var before uint64
	for r := 0; r < rounds; r++ {
		batch := ownRowBatch(uint64(r*n+1), n)
		for i := 0; i < n; i += 20 {
			if err := x.InsertBatch(batch[i : i+20]); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(x.src.index); got != n {
			t.Fatalf("round %d: %d live rows for %d entries with their own ends", r, got, n)
		}
		if got := x.RemoveBatch(batch); got != n {
			t.Fatalf("round %d: removed %d of %d", r, got, n)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(x.src.index) != 0 || len(x.src.free) != len(x.src.rows) {
			t.Fatalf("round %d: an empty index keeps %d live and %d dead of %d rows", r, len(x.src.index), len(x.src.dead), len(x.src.rows))
		}
		if got := len(x.view.Load().rows); got != n {
			t.Fatalf("round %d: the table has %d rows, want the %d one round needs", r, got, n)
		}
		if r == 0 {
			before = settledHeap()
		}
	}
	if RaceEnabled {
		return // byte figures are taken with the race detector off
	}
	grown := (float64(settledHeap()) - float64(before)) / (n * (rounds - 1))
	t.Logf("heap grew %.2f B per over-long entry inserted and removed after the first round", grown)
	if grown > 2 {
		t.Fatalf("each over-long entry inserted and removed leaves %.2f B of heap behind, want ≤ 2", grown)
	}
	runtime.KeepAlive(x)
}

// settledHeap returns the live heap once the collector has stopped
// freeing anything.
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

// Readers rebuild entries while the writer keeps forgetting over-long
// entries and uploading new ones with ends of their own, so rows die
// and are reused under them. Every round inserts a batch and forgets
// the one before, so half the rows die each round and are written
// again a round later. Each reader checks every entry Visit, Nearest
// and Scan hand out against what was inserted under its id, on windows
// that every stored interval meets and that only the later-ending ones
// do: a reader that met a reused row through a slot stored under its
// old source would see another end or provider, and a row written where
// a published view still reads it is also a race the detector reports.
func TestConcurrentRowReuse(t *testing.T) {
	const rounds, batch = 400, 20
	x := NewRTree()
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var prev []Entry
		for r := 0; r < rounds; r++ {
			cur := ownRowBatch(uint64(r*batch+1), batch)
			if err := x.InsertBatch(cur); err != nil {
				errs <- err
				return
			}
			if x.RemoveBatch(prev) != len(prev) {
				errs <- fmt.Errorf("writer: round %d's forget missed", r)
				return
			}
			prev = cur
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			read := func() bool {
				ok := true
				check := func(e *Entry, from int64) {
					if want := ownRowEntry(e.ID).OnGrid(); ok && (*e != want || e.Rep.EndMillis < from) {
						errs <- fmt.Errorf("reader %d: id %d reads as %+v from %d, inserted as %+v", r, e.ID, *e, from, want)
						ok = false
					}
				}
				// ownRowEntry(id) ends overLong+id ms past id s: the
				// second from lies halfway through the ends of all
				// rounds, which the later rounds' entries reach and
				// the earlier rounds' do not.
				for _, from := range []int64{math.MinInt64, overLong + rounds*batch*1000/2} {
					x.Visit(city, 10_000, 0, from, math.MaxInt64, func(e *Entry) float64 {
						check(e, from)
						return math.Inf(1)
					})
					for _, e := range topK(x, city, 10_000, 0, from, math.MaxInt64, 5, nil) {
						check(&e, from)
					}
				}
				x.Scan(func(e *Entry) bool {
					check(e, math.MinInt64)
					return ok
				})
				return ok
			}
			for {
				select {
				case <-done:
					read()
					return
				default:
					if !read() {
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := len(x.view.Load().rows); n > 4*batch {
		t.Fatalf("%d rounds of %d entries left %d source rows; reuse should hold it near %d", rounds, batch, n, 2*batch)
	}
}
