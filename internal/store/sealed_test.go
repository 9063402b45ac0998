package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fovr/internal/index"
)

// checkCounts asserts that every count the store reports without reading
// files — Len, TieredStats, the entries gauge — equals the size of the
// visible set read from them.
func checkCounts(t *testing.T, d *Disk) {
	t.Helper()
	entries, err := d.ReadEntries()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != len(entries) {
		t.Fatalf("Len = %d, visible set has %d", got, len(entries))
	}
	st := d.TieredStats()
	if got := st.SegmentEntries + st.MemtableEntries; got != len(entries) {
		t.Fatalf("TieredStats counts %d sealed + %d memtable, visible set has %d",
			st.SegmentEntries, st.MemtableEntries, len(entries))
	}
	var buf bytes.Buffer
	d.opts.Registry.WritePrometheus(&buf)
	if want := fmt.Sprintf("fovr_store_entries %d\n", len(entries)); !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("metrics lack %q", want)
	}
}

func TestSealedCountMatchesEntries(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	var all []index.Entry
	for id := uint64(1); id <= 30; id++ {
		all = append(all, wentry(id, int64(id%3)))
	}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)

	// Tombstones: sealed ids removed.
	if err := d.AppendRemove([]uint64{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// Shadows: sealed ids re-registered into their own window, and into
	// another one (a cross-window move, not yet flushed).
	moved := wentry(7, 2)
	if err := d.AppendRegister([]index.Entry{wentry(6, 0), moved, wentry(99, futureWindow())}); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)
	// Flushing only the move's destination tombstones the copy it left.
	if err := d.flushWindow(2); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay without a checkpoint shadows every sealed entry.
	d = openTiered(t, dir)
	defer d.Close()
	checkCounts(t, d)
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)
}

// modelEntries is the visible set a map model of acknowledged ops says
// the store holds.
func modelEntries(m map[uint64]index.Entry) []index.Entry {
	out := make([]index.Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	return out
}

// referenceFlush is the merge flushWindow replaced: decode window k's
// file, drop copies tombstoned in k or shadowed by a memtable entry of
// k, add those memtable entries, encode the lot. (A copy shadowed from
// another window stays until that window's flush tombstones it.) It
// returns the image a flush of k must write, or false when the window
// must end up without a segment.
func referenceFlush(t *testing.T, d *Disk, k int64) ([]byte, bool) {
	t.Helper()
	d.mu.Lock()
	old, sealed := d.segs[k]
	var merged []index.Entry
	drop := make(map[uint64]bool)
	for id, e := range d.state {
		if w, ok := d.windowKeyOf(e); ok && w == k {
			merged = append(merged, e)
			drop[id] = true
		}
	}
	for id := range d.tombs {
		drop[id] = drop[id] || d.tombHasLocked(id, k)
	}
	d.mu.Unlock()
	if sealed {
		data, err := os.ReadFile(filepath.Join(d.opts.Dir, segmentFileName(k, old.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		_, entries, err := DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !drop[e.ID] {
				merged = append(merged, e)
			}
		}
	}
	if len(merged) == 0 {
		return nil, false
	}
	img, _, err := EncodeSegment(k, merged)
	if err != nil {
		t.Fatal(err)
	}
	return img, true
}

// TestCompactionDifferential drives random seeded schedules of late
// arrivals into sealed windows, replay shadows, removes, re-registers
// into another window and re-flushes. Every flush must write exactly
// the image the decode-merge-encode reference writes, and the visible
// set must stay the map model of acknowledged ops. Even seeds upload
// under providers of random bytes, whose blocks deflate cannot shrink,
// so both stored forms of a block go through the merge.
func TestCompactionDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			raw := seed%2 == 0
			provider := func() string {
				if raw {
					p := make([]byte, 200)
					rng.Read(p)
					return string(p)
				}
				return fmt.Sprintf("phone-%d", rng.Intn(3))
			}
			dir := t.TempDir()
			d := openTiered(t, dir)
			defer func() { d.Close() }()
			model := map[uint64]index.Entry{}
			nextID := uint64(1)
			randLive := func() (uint64, bool) {
				if len(model) == 0 {
					return 0, false
				}
				ids := sortedIDs(modelEntries(model))
				return ids[rng.Intn(len(ids))], true
			}
			flushes, deflated, stored := 0, 0, 0
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // fresh ids, often late arrivals into sealed windows
					var batch []index.Entry
					for i := rng.Intn(4); i >= 0; i-- {
						e := wentry(nextID, int64(rng.Intn(4)))
						e.Provider = provider()
						nextID++
						batch = append(batch, e)
					}
					if err := d.AppendRegister(batch); err != nil {
						t.Fatal(err)
					}
					for _, e := range batch {
						model[e.ID] = e
					}
				case op < 6: // re-register a live id, in its window or another
					id, ok := randLive()
					if !ok {
						continue
					}
					e := wentry(id, int64(rng.Intn(4)))
					e.Provider = "re-" + model[id].Provider
					if err := d.AppendRegister([]index.Entry{e}); err != nil {
						t.Fatal(err)
					}
					model[id] = e
				case op < 7: // remove
					id, ok := randLive()
					if !ok {
						continue
					}
					if err := d.AppendRemove([]uint64{id}); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
				case op < 9: // flush what is eligible, and re-flush one clean window
					windows := d.eligibleWindows(time.Now().UnixMilli())
					windows = append(windows, int64(rng.Intn(4)))
					for _, k := range windows {
						want, wrote := referenceFlush(t, d, k)
						if err := d.flushWindow(k); err != nil {
							t.Fatal(err)
						}
						flushes++
						d.mu.Lock()
						m, sealed := d.segs[k]
						d.mu.Unlock()
						if sealed != wrote {
							t.Fatalf("step %d window %d: sealed=%v, reference wrote=%v", step, k, sealed, wrote)
						}
						if !wrote {
							continue
						}
						got, err := os.ReadFile(filepath.Join(dir, segmentFileName(k, m.Seq)))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("step %d window %d: flushed image differs from the decoded merge's", step, k)
						}
						if got[5]&segFlagDeflate != 0 {
							deflated++
						} else {
							stored++
						}
					}
					wantEntries(t, d, modelEntries(model))
				default: // restart: without a checkpoint, replay shadows sealed ids
					if rng.Intn(2) == 0 {
						if err := d.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					d = openTiered(t, dir)
				}
				wantEntries(t, d, modelEntries(model))
				checkCounts(t, d)
			}
			if flushes == 0 {
				t.Fatal("schedule never flushed")
			}
			if raw && stored == 0 || !raw && deflated == 0 {
				t.Fatalf("raw providers=%v: %d deflated and %d raw blocks flushed", raw, deflated, stored)
			}
		})
	}
}

// TestSealedTierNotResident pins what a sealed entry costs in RAM after
// Open: the id→window map, nothing else. Keeping the decoded entries
// (80 B each plus their provider strings) fails it.
func TestSealedTierNotResident(t *testing.T) {
	const n = 40_000
	dir := t.TempDir()
	d := openTiered(t, dir)
	entries := make([]index.Entry, 0, n)
	for id := uint64(1); id <= n; id++ {
		e := wentry(id, int64(id%8))
		e.Provider = fmt.Sprintf("phone-%03d", id%50)
		entries = append(entries, e)
	}
	if err := d.AppendRegister(entries); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint so the WAL no longer replays the entries into the
	// memtable: after Open they are sealed only.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	entries = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d = openTiered(t, dir)
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer d.Close()
	if st := d.TieredStats(); st.SegmentEntries != n || st.MemtableEntries != 0 {
		t.Fatalf("reopened store: %+v", st)
	}
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("heap after Open: %.1f B per sealed entry", perEntry)
	if perEntry >= 40 {
		t.Fatalf("Open keeps %.1f B of heap per sealed entry, want < 40 (the id→window map only)", perEntry)
	}
	runtime.KeepAlive(d)
}

// stateHash fingerprints a visible set independently of its order.
func stateHash(entries []index.Entry) uint64 {
	sorted := append([]index.Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := fnv.New64a()
	for _, e := range sorted {
		fmt.Fprintf(h, "%d|%s|%v|%v;", e.ID, e.Provider, e.Rep, e.Camera)
	}
	return h.Sum64()
}

// TestSealedReadsDuringCompaction runs ReadEntries and a follower's
// bootstrap legs (manifest, segments, memtable into a Mem) in a loop
// while one writer appends late arrivals, moves and removes and another
// goroutine compacts. No read may hit a superseded file, every
// bootstrap whose manifest held still must equal the model at its
// cursor, and every ReadEntries must equal the model at some cursor
// between its start and end.
func TestSealedReadsDuringCompaction(t *testing.T) {
	const ids = 150
	d := openTiered(t, t.TempDir())
	defer d.Close()
	model := map[uint64]index.Entry{}
	for id := uint64(1); id <= ids; id++ {
		model[id] = wentry(id, int64(id%4))
	}
	if err := d.AppendRegister(modelEntries(model)); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	gen0, off0 := d.LogCursor()

	// models[off] fingerprints the visible set right after the append
	// ending at off. Only the writer appends and nothing checkpoints, so
	// the WAL generation never moves.
	var mu sync.Mutex
	models := map[int64]uint64{off0: stateHash(modelEntries(model))}
	type read struct {
		lo, hi int64
		gen    uint64
		hash   uint64
		dup    bool
	}
	var boots, reads []read
	record := func(list *[]read, r read, entries []index.Entry) {
		r.hash = stateHash(entries)
		r.dup = len(entrySet(entries)) != len(entries)
		mu.Lock()
		*list = append(*list, r)
		mu.Unlock()
	}
	enough := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(boots) >= 100 && len(reads) >= 100
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan error, 3)
	loop := func(body func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := body(); err != nil {
					fail <- err
					return
				}
			}
		}()
	}
	loop(d.CompactNow)
	loop(func() error {
		ms := d.ManifestSnapshot()
		m := NewMem()
		for _, seg := range ms.Segments {
			raw, err := d.ReadSegment(seg.Window, seg.Seq)
			if err != nil {
				return nil // a flush superseded it: start over
			}
			if err := m.InstallSegment(seg, raw); err != nil {
				return err
			}
		}
		mem, gen, off, hash := d.CaptureMem()
		if hash != ms.Hash {
			return nil // the sealed set moved between the legs
		}
		entries, err := m.FinishBootstrap(ms, mem)
		if err == nil {
			record(&boots, read{lo: off, hi: off, gen: gen}, entries)
		}
		return err
	})
	loop(func() error {
		_, lo := d.LogCursor()
		entries, err := d.ReadEntries()
		_, hi := d.LogCursor()
		if err == nil {
			record(&reads, read{lo: lo, hi: hi, gen: gen0}, entries)
		}
		return err
	})

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000 && !enough(); i++ {
		id := uint64(1 + rng.Intn(ids))
		var err error
		if rng.Intn(4) == 0 {
			err = d.AppendRemove([]uint64{id})
			delete(model, id)
		} else {
			// Into any window: a late arrival into a sealed one, often a
			// move out of the window the id was sealed in.
			e := wentry(id, int64(rng.Intn(4)))
			e.Provider = fmt.Sprintf("p%d", i%7)
			err = d.AppendRegister([]index.Entry{e})
			model[id] = e
		}
		if err != nil {
			t.Fatal(err)
		}
		_, off := d.LogCursor()
		h := stateHash(modelEntries(model))
		mu.Lock()
		models[off] = h
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatalf("concurrent sealed read failed: %v", err)
	default:
	}
	if len(boots) == 0 || len(reads) == 0 {
		t.Fatalf("%d bootstraps and %d reads completed", len(boots), len(reads))
	}
	for i, r := range append(boots, reads...) {
		if r.gen != gen0 || r.dup {
			t.Fatalf("read %d: generation %d (want %d), repeated ids %v", i, r.gen, gen0, r.dup)
		}
		matched := false
		for off := r.lo; off <= r.hi && !matched; off++ {
			h, ok := models[off]
			matched = ok && h == r.hash
		}
		if !matched {
			t.Fatalf("read %d (cursor %d..%d) matches no model state in its window", i, r.lo, r.hi)
		}
	}
	t.Logf("%d bootstraps and %d reads checked against %d model states", len(boots), len(reads), len(models))
}

func TestDecodeSegmentInternsProviders(t *testing.T) {
	entries := batch(1, 6, "alice")
	entries[2].Provider, entries[4].Provider = "bob", "bob"
	img, _, err := EncodeSegment(0, entries)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entrySet(got), entrySet(entries)) {
		t.Fatal("interning changed the decoded entries")
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(got[0].Provider, got[5].Provider) || !same(got[2].Provider, got[4].Provider) {
		t.Fatal("entries of one provider do not share its string")
	}
}
