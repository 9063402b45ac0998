package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"fovr/internal/index"
)

// checkCounts asserts that every count the store reports without reading
// files — Len, TieredStats, the entries gauge — equals the size of the
// visible set read from them.
func checkCounts(t *testing.T, d *Disk) {
	t.Helper()
	entries, err := readEntries(d)
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
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)

	// Tombstones: sealed ids removed.
	if err := d.AppendRemove([]uint64{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// Shadows: sealed ids re-registered into their own window, and into
	// another one (a cross-window move, not yet sealed).
	moved := wentry(7, 2)
	if err := d.AppendRegister([]index.Entry{wentry(6, 0), moved, wentry(99, 5)}); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay from the manifest's base generation re-creates the
	// tombstones and shadows.
	d = openTiered(t, dir)
	defer d.Close()
	checkCounts(t, d)
	if st := d.TieredStats(); st.Tombstones != 3 || st.MemtableEntries != 3 {
		t.Fatalf("replay from the base generation: %+v", st)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, d)
	if st := d.TieredStats(); st.Tombstones != 0 || st.MemtableEntries != 0 {
		t.Fatalf("checkpoint left tombstones or memtable entries: %+v", st)
	}
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

// referenceSeal is the merge a checkpoint must write, computed the slow
// way: for every window the memtable or a tombstone touches, decode its
// file, drop the copies tombstoned in it or shadowed by a memtable entry
// of the same id (in any window), add the memtable entries of the
// window, and encode the lot. It returns each such window's expected
// image, nil when the window must end up without a segment.
func referenceSeal(t *testing.T, d *Disk) map[int64][]byte {
	t.Helper()
	d.mu.Lock()
	mem, err := d.memtableAt(d.baseGen, d.walGen, d.walSize, d.mem.Len())
	if err != nil {
		t.Fatal(err)
	}
	touched := map[int64][]index.Entry{} // window -> its memtable entries
	for id, e := range mem {
		k := d.windowKeyOf(e)
		touched[k] = append(touched[k], e)
		if w, ok := d.segIDs.Get(id); ok {
			touched[w] = touched[w] // a shadowed copy's window
		}
	}
	tombs := map[Tombstone]bool{}
	for id, ws := range d.tombs {
		for _, w := range ws {
			tombs[Tombstone{ID: id, Window: w}] = true
			touched[w] = touched[w]
		}
	}
	segs := maps.Clone(d.segs)
	d.mu.Unlock()
	want := make(map[int64][]byte, len(touched))
	for k, merged := range touched {
		if old, sealed := segs[k]; sealed {
			data, err := os.ReadFile(filepath.Join(d.opts.Dir, segmentFileName(k, old.Seq)))
			if err != nil {
				t.Fatal(err)
			}
			_, entries, err := DecodeSegment(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if _, shadowed := mem[e.ID]; !shadowed && !tombs[Tombstone{ID: e.ID, Window: k}] {
					merged = append(merged, e)
				}
			}
		}
		want[k] = nil
		if len(merged) > 0 {
			img, _, err := EncodeSegment(k, merged)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = img
		}
	}
	return want
}

// TestCompactionDifferential drives random seeded schedules of late
// arrivals into sealed windows, shadows, removes, re-registers into
// another window (moves), checkpoints and restarts. Every checkpoint
// must write exactly the images the decode-merge-encode reference
// writes for the windows it touches, leave every other window's
// segment as it was, and empty the memtable; the visible set must stay
// the map model of acknowledged ops. Even seeds upload under providers
// of random bytes, whose blocks deflate cannot shrink, so both stored
// forms of a block go through the merge.
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
			seals, deflated, stored := 0, 0, 0
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
				case op < 9: // checkpoint
					want := referenceSeal(t, d)
					d.mu.Lock()
					before := maps.Clone(d.segs)
					d.mu.Unlock()
					if err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					d.mu.Lock()
					after := maps.Clone(d.segs)
					st := d.mem.Len() + d.tombCount
					d.mu.Unlock()
					if st != 0 {
						t.Fatalf("step %d: checkpoint left %d memtable entries and tombstones", step, st)
					}
					for k, m := range after {
						if _, touched := want[k]; !touched && before[k] != m {
							t.Fatalf("step %d window %d: untouched window rewritten (%+v -> %+v)", step, k, before[k], m)
						}
					}
					for k, img := range want {
						m, sealed := after[k]
						if sealed != (img != nil) {
							t.Fatalf("step %d window %d: sealed=%v, reference wrote=%v", step, k, sealed, img != nil)
						}
						if !sealed {
							continue
						}
						seals++
						got, err := os.ReadFile(filepath.Join(dir, segmentFileName(k, m.Seq)))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, img) {
							t.Fatalf("step %d window %d: sealed image differs from the decoded merge's", step, k)
						}
						if got[5]&segFlagDeflate != 0 {
							deflated++
						} else {
							stored++
						}
					}
				default: // restart: the WAL from the base generation replays
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					d = openTiered(t, dir)
				}
				wantEntries(t, d, modelEntries(model))
				checkCounts(t, d)
			}
			if seals == 0 {
				t.Fatal("schedule never sealed")
			}
			if raw && stored == 0 || !raw && deflated == 0 {
				t.Fatalf("raw providers=%v: %d deflated and %d raw blocks sealed", raw, deflated, stored)
			}
		})
	}
}

// TestSealedTierNotResident pins what a sealed entry costs in RAM after
// Open: its slot in the id→window map (a 1-B offset of its window from
// its 64-id page's base plus a share of the page, about 2.3 B), nothing
// else. Keeping the decoded entries (80 B each plus their provider
// strings), the map as a Go map (about 30 B), or an 8-B window per id
// (about 9 B) fails it. The heap is sampled once the first store
// is dropped and the collector has stopped freeing it.
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
	// The checkpoint seals the entries and retires the WAL that held
	// them: after Open they are sealed only.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	entries, d = nil, nil

	before := settledHeap()
	d = openTiered(t, dir)
	after := settledHeap()
	defer d.Close()
	if st := d.TieredStats(); st.SegmentEntries != n || st.MemtableEntries != 0 {
		t.Fatalf("reopened store: %+v", st)
	}
	perEntry := (float64(after) - float64(before)) / n
	t.Logf("heap after Open: %.1f B per sealed entry", perEntry)
	if perEntry > 4 {
		t.Fatalf("Open keeps %.1f B of heap per sealed entry, want ≤ 4 (the id→window map only)", perEntry)
	}
	runtime.KeepAlive(d)
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

// appendUploads appends entries 1..n in uploads of 20, across eight
// windows and 50 providers: the corpus the memtable heap pins share.
func appendUploads(t *testing.T, d *Disk, n uint64) {
	t.Helper()
	for id := uint64(1); id <= n; id += 20 {
		batch := make([]index.Entry, 0, 20)
		for j := id; j < id+20; j++ {
			e := wentry(j, int64(j%8))
			e.Provider = fmt.Sprintf("phone-%03d", j%50)
			batch = append(batch, e)
		}
		if err := d.AppendRegister(batch); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.TieredStats(); st.MemtableEntries != int(n) {
		t.Fatalf("after %d appends: %+v", n, st)
	}
}

// TestMemtableNotResident pins what an un-checkpointed entry costs in
// RAM: its slot in the memtable's id→generation map (a 1-B offset of its
// generation from its 64-id page's base plus a share of the page, about
// 2.4 B), nothing else — the entry itself stays in the log. Keeping the
// decoded entries in a Go map (about 174 B each), or an 8-B generation
// per id (about 9 B), fails it. 40 000 entries arrive in uploads of 20,
// and the settled heap is compared with the empty store's.
func TestMemtableNotResident(t *testing.T) {
	const n = 40_000
	d := openTiered(t, t.TempDir())
	defer d.Close()
	before := settledHeap()
	appendUploads(t, d, n)
	after := settledHeap()
	perEntry := (float64(after) - float64(before)) / n
	t.Logf("heap with the memtable unsealed: %.1f B per entry", perEntry)
	if perEntry > 5 {
		t.Fatalf("the store keeps %.1f B of heap per un-checkpointed entry, want ≤ 5 (the id→generation map only)", perEntry)
	}
	runtime.KeepAlive(d)
}

// TestCheckpointReturnsMemtable pins what a checkpoint gives back with
// no restart: once it has sealed the memtable the store keeps what a
// reopened one does, the id→window map (about 2.7 B a sealed entry), and
// not the emptied memtable, nor any buckets a Go map would keep after
// its entries are deleted. The corpus is TestMemtableNotResident's;
// one checkpoint seals it, and the settled heap is compared with the
// empty store's.
func TestCheckpointReturnsMemtable(t *testing.T) {
	const n = 40_000
	d := openTiered(t, t.TempDir())
	defer d.Close()
	before := settledHeap()
	appendUploads(t, d, n)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := settledHeap()
	if st := d.TieredStats(); st.SegmentEntries != n || st.MemtableEntries != 0 {
		t.Fatalf("after the checkpoint: %+v", st)
	}
	perEntry := (float64(after) - float64(before)) / n
	t.Logf("heap after Checkpoint: %.1f B per sealed entry", perEntry)
	if perEntry > 4 {
		t.Fatalf("the store keeps %.1f B of heap per entry after a checkpoint, want ≤ 4 (the id→window map only)", perEntry)
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

// logPos is a WAL position, ordered as the log is.
type logPos struct {
	gen uint64
	off int64
}

func (p logPos) after(q logPos) bool {
	return p.gen > q.gen || p.gen == q.gen && p.off > q.off
}

// TestSealedReadsDuringCompaction runs ReadEntries and a follower's
// bootstrap (manifest and segments into a Mem, then the WAL from the
// manifest's BaseGen until caught up) in a loop while one writer
// appends late arrivals, moves and removes and another goroutine
// checkpoints. No read may hit a superseded file, every bootstrap must
// equal the model at the position it caught up to, and every
// ReadEntries must equal the model at some position between its start
// and end.
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
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// models[i] fingerprints the visible set after the writer's i-th
	// append, at the log head the writer read right after it. Only the
	// writer appends, so the positions ascend; a rotation between an
	// append and the read records the state at the next generation's
	// start, which is the same state.
	type state struct {
		at   logPos
		hash uint64
	}
	var mu sync.Mutex
	gen0, off0 := d.LogCursor()
	models := []state{{logPos{gen0, off0}, stateHash(modelEntries(model))}}
	type read struct {
		lo, hi logPos
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
	loop(d.Checkpoint)
	loop(func() error {
		ms := d.ManifestSnapshot()
		m := NewMem()
		for _, seg := range ms.Segments {
			raw, err := d.ReadSegment(seg.Window, seg.Seq)
			if err != nil {
				return nil // a checkpoint superseded it: start over
			}
			if err := m.InstallSegment(seg, raw); err != nil {
				return err
			}
		}
		entries, err := finishBootstrap(m, ms)
		if err != nil {
			return err
		}
		if len(entrySet(entries)) != len(entries) {
			return fmt.Errorf("bootstrap base repeats ids")
		}
		visible := entrySet(entries)
		at := logPos{ms.BaseGen, 0}
		for {
			frames, status, err := d.ReadLog(at.gen, at.off)
			if err != nil {
				return err
			}
			if status == TailReset {
				return nil // a checkpoint retired the base: start over
			}
			if status == TailAdvance {
				at = logPos{at.gen + 1, 0}
				continue
			}
			if len(frames) == 0 {
				break // caught up
			}
			recs, valid, err := DecodeWAL(frames)
			if err != nil || valid != len(frames) {
				return fmt.Errorf("tail at %v: %d of %d bytes valid: %v", at, valid, len(frames), err)
			}
			for _, rec := range recs {
				for _, e := range rec.Entries {
					visible[e.ID] = e
				}
				for _, id := range rec.IDs {
					delete(visible, id)
				}
			}
			at.off += int64(len(frames))
		}
		record(&boots, read{lo: at, hi: at}, modelEntries(visible))
		return nil
	})
	loop(func() error {
		g, o := d.LogCursor()
		entries, err := readEntries(d)
		g2, o2 := d.LogCursor()
		if err == nil {
			record(&reads, read{lo: logPos{g, o}, hi: logPos{g2, o2}}, entries)
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
		g, o := d.LogCursor()
		h := stateHash(modelEntries(model))
		mu.Lock()
		models = append(models, state{logPos{g, o}, h})
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
	// The states a read spanning [lo, hi] may have seen: the one current
	// at lo, every later one up to hi, and the next one when the writer
	// recorded it at a generation start past hi.
	last := func(p logPos) int {
		return sort.Search(len(models), func(i int) bool { return models[i].at.after(p) }) - 1
	}
	for i, r := range append(boots, reads...) {
		if r.dup {
			t.Fatalf("read %d repeats ids", i)
		}
		from, to := last(r.lo), last(r.hi)
		if to+1 < len(models) && models[to+1].at.off == 0 && models[to+1].at.gen > r.hi.gen {
			to++
		}
		matched := false
		for j := max(from, 0); j <= to && !matched; j++ {
			matched = models[j].hash == r.hash
		}
		if !matched {
			t.Fatalf("read %d (%v..%v) matches no model state in its span", i, r.lo, r.hi)
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
