package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"fovr/internal/geo"
)

// The concurrent differential suite: N readers against one writer, with
// no synchronization between them beyond the index under test. Batches
// insert contiguous id ranges, so every correct read of the full extent
// is a prefix {1..k*batchSize} — any torn batch, lost entry, or
// duplicate surfaces as a non-prefix id set; any partially visible
// InsertBatch surfaces as a count that is not a multiple of the batch
// size. Reader-observed epochs must be monotonic. Run under -race this
// also certifies the publication path's memory ordering.

const (
	concBatches   = 50
	concBatchSize = 20
)

// visitRefs collects the references an unbounded Visit hands out, with
// the traversal cost it reports.
func visitRefs(idx Index, r geo.Rect, startMillis, endMillis int64) (refs []*Entry, nodes, scanned int64) {
	nodes, scanned = idx.Visit(r, startMillis, endMillis, r.Center(), func(e *Entry) float64 {
		refs = append(refs, e)
		return math.Inf(1)
	})
	return refs, nodes, scanned
}

// checkPrefix verifies the result is exactly {1..n} for some n and
// returns n. It returns an error instead of failing so reader
// goroutines can use it too.
func checkPrefix(got []Entry) (int, error) {
	seen := make([]uint64, len(got))
	for i, e := range got {
		seen[i] = e.ID
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
	for i, id := range seen {
		if id != uint64(i+1) {
			return 0, fmt.Errorf("read is not a prefix of applied batches: position %d holds id %d (%d ids total)", i, id, len(seen))
		}
	}
	return len(seen), nil
}

func TestConcurrentSnapshotReads(t *testing.T) {
	full := geo.RectAround(city, 30_000)
	const tlo, thi = -(1 << 40), 1 << 40
	t.Run("rtree", func(t *testing.T) {
		idx := NewRTree()
		rng := rand.New(rand.NewSource(321))
		batches := make([][]Entry, concBatches)
		nextID := uint64(1)
		for b := range batches {
			batch := make([]Entry, concBatchSize)
			for i := range batch {
				batch[i] = diffEntry(rng, nextID)
				nextID++
			}
			batches[b] = batch
		}

		var wg sync.WaitGroup
		done := make(chan struct{})
		errs := make(chan error, 8)

		// Writer: apply every batch, then signal.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for _, b := range batches {
				if err := idx.InsertBatch(b); err != nil {
					errs <- err
					return
				}
			}
		}()

		// Readers: until the writer finishes (plus one final read),
		// every full-extent read must be a whole-batch prefix, and
		// both the observed epoch and the visible prefix must be
		// monotonic per reader — a single serialized writer never
		// lets a later read see less.
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var lastEpoch uint64
				lastN := 0
				read := func() bool {
					e1 := idx.ReadEpoch()
					if e1 < lastEpoch {
						errs <- fmt.Errorf("reader %d: epoch regressed %d -> %d", r, lastEpoch, e1)
						return false
					}
					got := idx.Search(full, tlo, thi)
					n := len(got)
					if n%concBatchSize != 0 {
						errs <- fmt.Errorf("reader %d: saw %d entries, not a multiple of the batch size %d (torn batch)", r, n, concBatchSize)
						return false
					}
					ids := make(map[uint64]bool, n)
					for _, e := range got {
						ids[e.ID] = true
					}
					if len(ids) != n {
						errs <- fmt.Errorf("reader %d: %d entries with %d distinct ids", r, n, len(ids))
						return false
					}
					for id := uint64(1); id <= uint64(n); id++ {
						if !ids[id] {
							errs <- fmt.Errorf("reader %d: %d entries but id %d missing — not a batch prefix", r, n, id)
							return false
						}
					}
					if n < lastN {
						errs <- fmt.Errorf("reader %d: visible entries shrank %d -> %d under an insert-only writer", r, lastN, n)
						return false
					}
					lastN = n
					e2 := idx.ReadEpoch()
					if e2 < e1 {
						errs <- fmt.Errorf("reader %d: epoch regressed across a read %d -> %d", r, e1, e2)
						return false
					}
					lastEpoch = e2
					return true
				}
				for {
					select {
					case <-done:
						read() // one read after the writer is done
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

		// Everything landed.
		n, err := checkPrefix(idx.Search(full, tlo, thi))
		if err != nil {
			t.Fatal(err)
		}
		if n != concBatches*concBatchSize {
			t.Fatalf("final read sees %d entries, want %d", n, concBatches*concBatchSize)
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// The removal phase: a writer deleting ids top-down, readers asserting
// every read remains a contiguous prefix and shrinks monotonically.
// (The writer removes and publishes one entry at a time, so multiples
// of the batch size are not expected here — only prefix consistency and
// monotonicity.)
func TestConcurrentSnapshotReadsDuringRemoval(t *testing.T) {
	full := geo.RectAround(city, 30_000)
	const tlo, thi = -(1 << 40), 1 << 40
	const total = 600
	t.Run("rtree", func(t *testing.T) {
		idx := NewRTree()
		rng := rand.New(rand.NewSource(654))
		entries := make([]Entry, total)
		for i := range entries {
			entries[i] = diffEntry(rng, uint64(i+1))
		}
		if err := idx.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		done := make(chan struct{})
		errs := make(chan error, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for i := total - 1; i >= 0; i-- {
				if idx.RemoveBatch(entries[i:i+1]) != 1 {
					errs <- fmt.Errorf("writer: live id %d not removed", entries[i].ID)
					return
				}
			}
		}()
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				last := total + 1
				read := func() bool {
					n, err := checkPrefix(idx.Search(full, tlo, thi))
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", r, err)
						return false
					}
					if n > last {
						errs <- fmt.Errorf("reader %d: visible entries grew %d -> %d under a remove-only writer", r, last, n)
						return false
					}
					last = n
					return true
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
		if got := idx.Search(full, tlo, thi); len(got) != 0 {
			t.Fatalf("final read sees %d entries after removing all", len(got))
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// What a reader may hold: references handed out by Visit stay valid, and
// unchanged, however far the writer has moved on. Readers keep the
// reference sets of several earlier reads next to by-value copies taken
// at read time and compare them again later, while a saturating writer
// inserts batches and removes half of each — splits, condensation and
// reinsertion all over the nodes those references point into. A write
// into a published node shows as a changed value here, as a data race
// under -race, and as a panic under -tags fovrdebug.
func TestConcurrentRefsNeverChange(t *testing.T) {
	full := geo.RectAround(city, 30_000)
	const tlo, thi = -(1 << 40), 1 << 40
	const rounds, held = 60, 4
	t.Run("rtree", func(t *testing.T) {
		idx := NewRTree()
		rng := rand.New(rand.NewSource(987))
		const preload = 400 // the first reads already hold references
		seedBatch := make([]Entry, preload)
		for i := range seedBatch {
			seedBatch[i] = diffEntry(rng, uint64(i+1))
		}
		if err := idx.InsertBatch(seedBatch); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		errs := make(chan error, 8)

		wg.Add(1)
		go func() { // saturating writer: runs until every reader is done
			defer wg.Done()
			for nextID := uint64(preload + 1); ; {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]Entry, concBatchSize)
				for i := range batch {
					batch[i] = diffEntry(rng, nextID)
					nextID++
				}
				if err := idx.InsertBatch(batch); err != nil {
					errs <- err
					return
				}
				for i := range batch[:concBatchSize/2] {
					if idx.RemoveBatch(batch[i:i+1]) != 1 {
						errs <- fmt.Errorf("writer: live id %d not removed", batch[i].ID)
						return
					}
				}
			}
		}()

		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				type observed struct {
					refs   []*Entry
					copies []Entry
				}
				var ring [held]observed
				for i := 0; i < rounds; i++ {
					// Let the writer publish between reads (unless it failed).
					for e := idx.ReadEpoch(); i > 0 && idx.ReadEpoch() == e && len(errs) == 0; {
						runtime.Gosched()
					}
					refs, _, _ := visitRefs(idx, full, tlo, thi)
					copies := make([]Entry, len(refs))
					for j, e := range refs {
						copies[j] = *e
					}
					ring[i%held] = observed{refs, copies}
					for _, o := range ring {
						for j, e := range o.refs {
							if *e != o.copies[j] {
								errs <- fmt.Errorf("reader %d: entry %d changed under a held reference: %+v -> %+v", r, o.copies[j].ID, o.copies[j], *e)
								return
							}
						}
					}
				}
			}(r)
		}
		readers.Wait()
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentMutationStress churns the tree with batch writers and
// removers while readers walk it with Visit and Nearest. Every writer
// shares the one tree lock; readers take none. Run under -race this
// exercises the publish path against lock-free readers; afterwards the
// tree must pass full invariant checking and agree with a linear oracle
// over the surviving entries.
func TestConcurrentMutationStress(t *testing.T) {
	x := NewRTree()
	const writers, readers, batches, batchLen = 4, 4, 30, 16
	survivors := make([][]Entry, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			next := uint64(w * 1_000_000)
			for b := 0; b < batches; b++ {
				batch := make([]Entry, batchLen)
				for i := range batch {
					batch[i] = randEntry(rng, next)
					next++
				}
				if err := x.InsertBatch(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				// Remove a few of this writer's own committed entries;
				// the rest survive to the final oracle comparison.
				for i, e := range batch {
					if i%4 == 0 {
						if x.RemoveBatch([]Entry{e}) != 1 {
							t.Errorf("writer %d: committed id %d not removable", w, e.ID)
							return
						}
						continue
					}
					survivors[w] = append(survivors[w], e)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 150; i++ {
				center := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
				ts := int64(rng.Intn(86_400_000))
				te := ts + int64(rng.Intn(3_600_000))
				visitRefs(x, geo.RectAround(center, 500), ts, te)
				x.Nearest(center, ts, te, 5, 1000, nil)
				x.Len()
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	lin := NewLinear()
	for _, ss := range survivors {
		for _, e := range ss {
			if err := lin.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if x.Len() != lin.Len() {
		t.Fatalf("tree holds %d entries, oracle %d", x.Len(), lin.Len())
	}
	rect := geo.RectAround(city, 10_000)
	a := ids(x.Search(rect, 0, 1<<40))
	b := ids(lin.Search(rect, 0, 1<<40))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("post-stress contents diverge: tree %d ids, oracle %d", len(a), len(b))
	}
}

// The visiting read path allocates nothing, and the collecting Search
// costs its reference buffer's growth plus one exact-size copy.
func TestSnapshotReadAllocs(t *testing.T) {
	x := NewRTree()
	rng := rand.New(rand.NewSource(5))
	for id := uint64(1); id <= 400; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	q := geo.RectAround(city, 3000)
	const ts, te = 0, 86_400_000
	hits := 0
	count := func(*Entry) float64 { hits++; return math.Inf(1) }
	if got := testing.AllocsPerRun(200, func() {
		x.Visit(q, ts, te, city, count)
	}); got != 0 {
		t.Fatalf("RTree.Visit allocates %.1f/op, want 0", got)
	}
	if n := len(x.Search(q, ts, te)); n < 50 {
		t.Fatalf("only %d hits: the pins below would not see a per-hit cost", n)
	}
	grow := testing.AllocsPerRun(200, func() {
		visitRefs(x, q, ts, te)
	})
	if got := testing.AllocsPerRun(200, func() {
		x.Search(q, ts, te)
	}); got > grow+1 {
		t.Fatalf("Search allocates %.1f/op, reference form %.1f/op: want one more at most", got, grow)
	}
}
