package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"fovr/internal/fov"
	"fovr/internal/geo"
)

// A leaf slot is 40 B, 34 of them data: id 8, start 8, position 8 as
// two int32 grid codes, a 32-bit duration, a 32-bit source row and a
// 16-bit heading code. A field added to it grows every leaf of every
// index, so it has to show up here first.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 40 {
		t.Fatalf("slot is %d B, want 40", got)
	}
}

// sourcedEntry is the entry with the given id in the source-interning
// tests: a pure function of the id, so a reader can tell what every
// materialised entry must be. Each batch of concBatchSize ids brings
// two providers and a camera no earlier batch used; the providers
// alternate and a third of the entries carry no camera, so the walker's
// buffer changes rows from slot to slot.
func sourcedEntry(id uint64) Entry {
	e := randEntry(rand.New(rand.NewSource(int64(id))), id)
	b := id / concBatchSize
	e.Provider = fmt.Sprintf("provider-%d-%d", b, id%2)
	if id%3 != 0 {
		e.Camera = fov.Camera{HalfAngleDeg: 10 + float64(b%70), RadiusMeters: 20 + float64(b)}
	}
	return e
}

// Readers rebuild entries from slots and the source table while the
// writer interns new providers and cameras with every batch — so the
// table's backing array is reallocated under them — and forgets some of
// what it inserted. Two readers check what Visit, Nearest and Scan hand
// out: every entry must equal what was inserted under its id, and every
// slot of the snapshot a reader loaded must name a row of the table
// published with it (an index past it is a panic in the walker). Two
// readers check the pairing alone, as fast as they can: every batch
// brings rowsPerBatch new rows and leaves concBatchSize-2 entries (20
// while its removal is unpublished), so a snapshot of n entries needs
// the rows of (n+15)/18 batches. A view that pairs a snapshot with an
// older table opens a window this loop lands in.
func TestConcurrentSourceInterning(t *testing.T) {
	const batches, rowsPerBatch = 300, 4
	x := NewRTree()
	const tlo, thi = -(1 << 40), 1 << 40

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := uint64(1); b <= batches; b++ {
			batch := make([]Entry, concBatchSize)
			for i := range batch {
				batch[i] = sourcedEntry(b*concBatchSize + uint64(i))
			}
			if err := x.InsertBatch(batch); err != nil {
				errs <- err
				return
			}
			if x.RemoveBatch(batch[:2]) != 2 {
				errs <- fmt.Errorf("writer: batch %d not removable", b)
				return
			}
		}
	}()

	check := func(r int, e *Entry) bool {
		if want := sourcedEntry(e.ID).OnGrid(); *e != want {
			errs <- fmt.Errorf("reader %d: id %d materialised as %+v, inserted as %+v", r, e.ID, *e, want)
			return false
		}
		return true
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				snap, w := x.read()
				n, rows := snap.Len(), len(w.sources)
				w.release()
				if need := (n + concBatchSize - 5) / (concBatchSize - 2) * rowsPerBatch; rows < need {
					errs <- fmt.Errorf("order reader %d: a snapshot of %d entries needs %d source rows, the table published with it has %d", r, n, need, rows)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	for r := 2; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			read := func() bool {
				ok := true
				x.Visit(city, 30_000, 0, tlo, thi, func(e *Entry) float64 {
					ok = ok && check(r, e)
					return math.Inf(1)
				})
				center := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
				for _, e := range topK(x, center, 30_000, 0, tlo, thi, 10, func(e *Entry) bool { return ok && check(r, e) }) {
					ok = ok && check(r, &e)
				}
				x.Scan(func(e *Entry) bool {
					ok = ok && check(r, e)
					return ok
				})
				snap, w := x.read()
				snap.Scan(func(s *slot) bool {
					if int(s.src) >= len(w.sources) {
						errs <- fmt.Errorf("reader %d: id %d names row %d of a %d-row table", r, s.ID, s.src, len(w.sources))
						ok = false
					}
					return ok
				})
				w.release()
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
	if want := batches * (concBatchSize - 2); x.Len() != want {
		t.Fatalf("Len = %d, want %d", x.Len(), want)
	}
	// Two providers per batch, each with the batch's camera and with
	// none; a forget of two entries takes no row's last slot, so no
	// row dies. Rows are counted under the index's own key.
	distinct := make(map[source]bool)
	for b := uint64(1); b <= batches; b++ {
		for i := uint64(0); i < concBatchSize; i++ {
			e := sourcedEntry(b*concBatchSize + i)
			distinct[sourceKey(&e)] = true
		}
	}
	if len(distinct) != batches*rowsPerBatch {
		t.Fatalf("the batches bring %d distinct pairs, want %d", len(distinct), batches*rowsPerBatch)
	}
	if got := len(x.view.Load().rows); got != len(distinct) {
		t.Fatalf("source table has %d rows, want %d (one per distinct pair stored)", got, len(distinct))
	}
}

// The source table is the index's own: a bulk load interns as inserts
// do, a rebuilt index starts a fresh table, and every entry reads back
// with its own provider and camera.
func TestSourceTableRoundTrip(t *testing.T) {
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = sourcedEntry(uint64(i + 1))
	}
	bulk, err := bulkLoad(entries)
	if err != nil {
		t.Fatal(err)
	}
	inserted := NewRTree()
	if err := inserted.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*RTree{"bulk": bulk, "insert": inserted} {
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make(map[uint64]Entry)
		for _, e := range x.Entries() {
			got[e.ID] = e
		}
		for _, e := range entries {
			if got[e.ID] != e.OnGrid() {
				t.Fatalf("%s: id %d reads back as %+v, want %+v", name, e.ID, got[e.ID], e.OnGrid())
			}
		}
		if n := len(x.view.Load().rows); n >= len(entries)/2 {
			t.Fatalf("%s: %d rows for %d entries: the table is not interning", name, n, len(entries))
		}
	}
}
