package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fovr/internal/index"
)

// testWindowMs is the segment window the tiered tests run with. Windows
// keyed near epoch zero are always decades colder than any configured
// age, so sealing eligibility never depends on the wall clock.
const testWindowMs = int64(60_000)

// openTiered opens a store with the segment tier on and background
// loops off (tests drive sealing with CompactNow).
func openTiered(t *testing.T, dir string, mutate ...func(*Options)) *Disk {
	t.Helper()
	all := append([]func(*Options){func(o *Options) {
		o.SegmentWindow = time.Minute
		o.SegmentWindowAge = time.Millisecond
		o.CompactionInterval = -1
	}}, mutate...)
	return open(t, dir, all...)
}

// wentry builds an entry that seals into the given time window.
func wentry(id uint64, window int64) index.Entry {
	e := entry(id, "p")
	e.Rep.StartMillis = window*testWindowMs + int64(id%59)*1000
	e.Rep.EndMillis = e.Rep.StartMillis + 500
	return e
}

// futureWindow returns a window key far enough in the future that no
// test run ever seals it — its entries are permanent memtable
// residents.
func futureWindow() int64 {
	return time.Now().UnixMilli()/testWindowMs + 1_000_000
}

func entrySet(entries []index.Entry) map[uint64]index.Entry {
	m := make(map[uint64]index.Entry, len(entries))
	for _, e := range entries {
		m[e.ID] = e
	}
	return m
}

func wantEntries(t *testing.T, d *Disk, want []index.Entry) {
	t.Helper()
	entries, err := d.ReadEntries()
	if err != nil {
		t.Fatal(err)
	}
	got := entrySet(entries)
	if len(got) != len(entries) {
		t.Fatalf("visible set repeats ids: %v", sortedIDs(entries))
	}
	if len(got) != len(want) {
		t.Fatalf("visible set has %d entries, want %d (%v vs %v)",
			len(got), len(want), sortedIDs(entries), sortedIDs(want))
	}
	for _, e := range want {
		if g, ok := got[e.ID]; !ok || g != e {
			t.Fatalf("entry %d: got %+v, want %+v", e.ID, g, e)
		}
	}
}

func TestTieredSealAndReadBack(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	defer d.Close()

	var all []index.Entry
	for id := uint64(1); id <= 10; id++ {
		all = append(all, wentry(id, 0))
	}
	for id := uint64(11); id <= 16; id++ {
		all = append(all, wentry(id, 1))
	}
	hot := wentry(100, futureWindow())
	all = append(all, hot)
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if got := d.CompactionBacklog(); got != 2 {
		t.Fatalf("backlog before seal = %d, want 2", got)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, d, all)
	if d.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(all))
	}
	st := d.TieredStats()
	if st.Segments != 2 || st.SegmentEntries != 16 || st.MemtableEntries != 1 {
		t.Fatalf("stats after seal: %+v", st)
	}
	if st.CompactionBacklog != 0 {
		t.Fatalf("backlog after seal = %d, want 0", st.CompactionBacklog)
	}
	for _, name := range []string{segmentFileName(0, 1), segmentFileName(1, 1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("segment file %s missing: %v", name, err)
		}
	}
}

func TestTieredRecoverAfterSeal(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1), wentry(50, futureWindow())}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// No checkpoint ran: replay re-creates memtable copies of the sealed
	// entries (shadows). The visible set must still deduplicate them.
	r := openTiered(t, dir)
	defer r.Close()
	wantEntries(t, r, all)
	st := r.TieredStats()
	if st.Segments != 2 {
		t.Fatalf("recovered %d segments, want 2", st.Segments)
	}
	if st.MemtableEntries != 4 {
		t.Fatalf("replay should shadow all 4 entries into the memtable, have %d", st.MemtableEntries)
	}
	// The shadowed windows are flushable again; compacting retires the
	// shadows without changing the visible set.
	if err := r.CompactNow(); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, r, all)
	if st = r.TieredStats(); st.MemtableEntries != 1 {
		t.Fatalf("memtable after shadow cleanup = %d, want 1", st.MemtableEntries)
	}
}

func TestTieredRemoveSealedEntry(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 0)}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	want := []index.Entry{all[0], all[2]}
	wantEntries(t, d, want)
	if st := d.TieredStats(); st.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", st.Tombstones)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The tombstone is durable through WAL replay (register then remove
	// replays into the same rule).
	r := openTiered(t, dir)
	wantEntries(t, r, want)
	// Compacting the tombstoned window rewrites the segment without the
	// dead copy and drops the tombstone.
	if err := r.CompactNow(); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, r, want)
	if st := r.TieredStats(); st.Tombstones != 0 {
		t.Fatalf("tombstones after compaction = %d, want 0", st.Tombstones)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openTiered(t, dir)
	defer r2.Close()
	wantEntries(t, r2, want)
}

func TestTieredNoResurrectionAcrossWindows(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	v1 := wentry(7, 0)
	if err := d.AppendRegister([]index.Entry{v1, wentry(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRemove([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	// Re-register the id into a different window and seal it there.
	v2 := wentry(7, 1)
	if err := d.AppendRegister([]index.Entry{v2}); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, d, []index.Entry{wentry(1, 0), v2})
	// Remove it again: neither sealed copy may ever resurface.
	if err := d.AppendRemove([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	want := []index.Entry{wentry(1, 0)}
	wantEntries(t, d, want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTiered(t, dir)
	wantEntries(t, r, want)
	if err := r.CompactNow(); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, r, want)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openTiered(t, dir)
	defer r2.Close()
	wantEntries(t, r2, want)
}

func TestTieredCheckpointIsIncremental(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	var cold []index.Entry
	for id := uint64(1); id <= 200; id++ {
		cold = append(cold, wentry(id, int64(id%4)))
	}
	if err := d.AppendRegister(cold); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	hot := []index.Entry{wentry(1000, futureWindow()), wentry(1001, futureWindow())}
	if err := d.AppendRegister(hot); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint carries the delta (memtable) only; cold windows live
	// in their segment files.
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.fovg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("checkpoint files %v (err %v), want exactly one", matches, err)
	}
	img, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	_, cpEntries, err := DecodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpEntries) != len(hot) {
		t.Fatalf("checkpoint holds %d entries, want just the %d memtable entries", len(cpEntries), len(hot))
	}

	r := openTiered(t, dir)
	defer r.Close()
	wantEntries(t, r, append(append([]index.Entry{}, cold...), hot...))
	if st := r.TieredStats(); st.MemtableEntries != len(hot) {
		t.Fatalf("recovery from incremental checkpoint shadowed sealed entries: memtable=%d", st.MemtableEntries)
	}
}

// hourEntry builds an entry in the given one-hour window, the width a
// store opened with default options seals by.
func hourEntry(id uint64, hour int64) index.Entry {
	e := entry(id, "p")
	e.Rep.StartMillis = hour*3_600_000 + int64(id%59)*1000
	e.Rep.EndMillis = e.Rep.StartMillis + 500
	return e
}

// TestFlatDirectoryUpgradesToManifest opens, with default options, what
// a store without a segment tier leaves behind — a checkpoint and a log,
// no manifest: every entry is there, the first checkpoint writes a
// manifest, compaction seals the cold windows, and a reopen serves the
// same set.
func TestFlatDirectoryUpgradesToManifest(t *testing.T) {
	dir := t.TempDir()
	base := []index.Entry{hourEntry(1, 0), hourEntry(2, 0), hourEntry(3, 1)}
	var tail bytes.Buffer
	cp, _, err := EncodeSegment(0, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: opRegister, Entries: []index.Entry{hourEntry(4, 1), hourEntry(5, 2)}},
		{Op: opRemove, IDs: []uint64{2}},
	} {
		if err := appendRecord(&tail, rec); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range map[string][]byte{checkpointName(2): cp, walName(2): tail.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []index.Entry{base[0], base[2], hourEntry(4, 1), hourEntry(5, 2)}
	manifest := filepath.Join(dir, manifestFile)

	d := open(t, dir)
	wantEntries(t, d, want)
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("open wrote a manifest before any checkpoint (stat: %v)", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("first checkpoint wrote no manifest: %v", err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if st := d.TieredStats(); st.Segments != 3 || st.MemtableEntries != 0 {
		t.Fatalf("cold windows not sealed: %+v", st)
	}
	wantEntries(t, d, want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	defer r.Close()
	wantEntries(t, r, want)
	if st := r.TieredStats(); st.Segments != 3 {
		t.Fatalf("reopen lost sealed windows: %+v", st)
	}
}

// TestTieredMatchesFlatSemantics runs an identical random op sequence
// against a tiered store (sealing aggressively along the way) and a
// plain map, and checks the visible set never diverges.
func TestTieredMatchesFlatSemantics(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	rng := rand.New(rand.NewSource(7))
	flat := map[uint64]index.Entry{}
	var nextID uint64 = 1
	for step := 0; step < 60; step++ {
		switch {
		case rng.Intn(4) == 0 && len(flat) > 0:
			// Remove a random live id.
			ids := make([]uint64, 0, len(flat))
			for id := range flat {
				ids = append(ids, id)
			}
			victim := ids[rng.Intn(len(ids))]
			if err := d.AppendRemove([]uint64{victim}); err != nil {
				t.Fatal(err)
			}
			delete(flat, victim)
		default:
			n := 1 + rng.Intn(4)
			batch := make([]index.Entry, 0, n)
			for i := 0; i < n; i++ {
				// Mostly fresh ids, sometimes a re-register of a live one.
				id := nextID
				if rng.Intn(5) == 0 && len(flat) > 0 {
					for cand := range flat {
						id = cand
						break
					}
				} else {
					nextID++
				}
				e := wentry(id, int64(rng.Intn(3)))
				batch = append(batch, e)
				flat[id] = e
			}
			if err := d.AppendRegister(batch); err != nil {
				t.Fatal(err)
			}
		}
		if step%7 == 3 {
			if err := d.CompactNow(); err != nil {
				t.Fatal(err)
			}
		}
		if step%13 == 11 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]index.Entry, 0, len(flat))
		for _, e := range flat {
			want = append(want, e)
		}
		wantEntries(t, d, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTiered(t, dir)
	defer r.Close()
	want := make([]index.Entry, 0, len(flat))
	for _, e := range flat {
		want = append(want, e)
	}
	wantEntries(t, r, want)
}

// copyDir clones a data directory for crash-state reconstruction.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSealKillPoints reconstructs every crash state a kill can leave
// behind across flushWindow's write points — the segment tmp write (at
// every byte), the rename, the manifest rotation (at every byte of
// manifest.tmp), and the superseded-file delete — and asserts recovery
// lands on the committed visible set every time. Covers both the first
// seal of a window (no prior segment) and a re-flush (prior sequence
// superseded).
func TestSealKillPoints(t *testing.T) {
	// Stage 1: a clean pre-seal directory (WAL only).
	base := t.TempDir()
	d := openTiered(t, base)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 0)}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Harvest the artifacts the first seal writes.
	sealed1 := copyDir(t, base)
	d = openTiered(t, sealed1)
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg1, err := os.ReadFile(filepath.Join(sealed1, segmentFileName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	man1, err := os.ReadFile(filepath.Join(sealed1, manifestFile))
	if err != nil {
		t.Fatal(err)
	}

	// Stage 2: more window-0 entries on top of the sealed state, then the
	// re-flush's artifacts (segment seq 2, manifest v2).
	d = openTiered(t, sealed1)
	late := []index.Entry{wentry(4, 0), wentry(5, 0)}
	if err := d.AppendRegister(late); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pre2 := copyDir(t, sealed1) // sealed seq 1 + WAL with the late records
	sealed2 := copyDir(t, pre2)
	d = openTiered(t, sealed2)
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg2, err := os.ReadFile(filepath.Join(sealed2, segmentFileName(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	man2, err := os.ReadFile(filepath.Join(sealed2, manifestFile))
	if err != nil {
		t.Fatal(err)
	}

	want1 := all
	want2 := append(append([]index.Entry{}, all...), late...)

	verify := func(t *testing.T, dir string, want []index.Entry) {
		t.Helper()
		r := openTiered(t, dir)
		wantEntries(t, r, want)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery must leave the directory consistent for a second open.
		r2 := openTiered(t, dir)
		wantEntries(t, r2, want)
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write := func(t *testing.T, dir, name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("first-seal/segment-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(seg1); cut += killStride(len(seg1)) {
			dir := copyDir(t, base)
			write(t, dir, segmentFileName(0, 1)+".tmp", seg1[:cut])
			verify(t, dir, want1)
			if names, _ := filepath.Glob(filepath.Join(dir, "*.fovg.tmp")); len(names) != 0 {
				t.Fatalf("cut %d: recovery left torn tmp files: %v", cut, names)
			}
		}
	})
	t.Run("first-seal/segment-renamed-no-manifest", func(t *testing.T) {
		dir := copyDir(t, base)
		write(t, dir, segmentFileName(0, 1), seg1)
		verify(t, dir, want1)
	})
	t.Run("first-seal/manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man1); cut += killStride(len(man1)) {
			dir := copyDir(t, base)
			write(t, dir, segmentFileName(0, 1), seg1)
			write(t, dir, manifestTmpFile, man1[:cut])
			verify(t, dir, want1)
			if _, err := os.Stat(filepath.Join(dir, manifestTmpFile)); err == nil {
				t.Fatalf("cut %d: recovery left manifest.tmp", cut)
			}
		}
	})
	t.Run("first-seal/complete", func(t *testing.T) {
		dir := copyDir(t, base)
		write(t, dir, segmentFileName(0, 1), seg1)
		write(t, dir, manifestFile, man1)
		verify(t, dir, want1)
	})

	t.Run("reflush/segment-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(seg2); cut += killStride(len(seg2)) {
			dir := copyDir(t, pre2)
			write(t, dir, segmentFileName(0, 2)+".tmp", seg2[:cut])
			verify(t, dir, want2)
		}
	})
	t.Run("reflush/segment-renamed-old-manifest", func(t *testing.T) {
		// seq 2 on disk but the manifest still names seq 1: recovery must
		// serve seq 1 + WAL replay, and sweep the unreferenced seq 2.
		dir := copyDir(t, pre2)
		write(t, dir, segmentFileName(0, 2), seg2)
		verify(t, dir, want2)
		if _, err := os.Stat(filepath.Join(dir, segmentFileName(0, 2))); err == nil {
			t.Fatal("unreferenced seq-2 segment not swept")
		}
	})
	t.Run("reflush/manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man2); cut += killStride(len(man2)) {
			dir := copyDir(t, pre2)
			write(t, dir, segmentFileName(0, 2), seg2)
			write(t, dir, manifestTmpFile, man2[:cut])
			verify(t, dir, want2)
		}
	})
	t.Run("reflush/manifest-rotated-old-segment-undeleted", func(t *testing.T) {
		// The crash hit between the manifest rename and the old-file
		// delete: manifest v2 names seq 2, seq 1 lingers.
		dir := copyDir(t, pre2)
		write(t, dir, segmentFileName(0, 2), seg2)
		write(t, dir, manifestFile, man2)
		verify(t, dir, want2)
		if _, err := os.Stat(filepath.Join(dir, segmentFileName(0, 1))); err == nil {
			t.Fatal("superseded seq-1 segment not swept")
		}
	})
}

// killStride keeps every-byte sweeps exact for the sizes these tests
// produce while bounding pathological blowup if an artifact ever grows
// huge.
func killStride(n int) int {
	if n <= 4096 {
		return 1
	}
	return n / 4096
}

// TestCheckpointManifestKillPoints walks the crash states of a
// checkpoint on a tiered store whose tombstones are not yet in the
// manifest — the ordering contract says the manifest rotates BEFORE the
// checkpoint rename, so every intermediate state keeps the tombstone
// durable in the manifest or replayable from the WAL.
func TestCheckpointManifestKillPoints(t *testing.T) {
	base := t.TempDir()
	d := openTiered(t, base)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 0)}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	// Tombstone a sealed id and add a memtable resident — both only in
	// WAL + RAM until the checkpoint.
	if err := d.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	hot := wentry(9, futureWindow())
	if err := d.AppendRegister([]index.Entry{hot}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want := []index.Entry{all[0], all[2], hot}

	// Harvest the checkpoint's artifacts from a scratch run.
	post := copyDir(t, base)
	d = openTiered(t, post)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	man2, err := os.ReadFile(filepath.Join(post, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(man2), "tombstones") {
		t.Fatalf("checkpoint-time manifest does not carry tombstones: %s", man2)
	}
	matches, _ := filepath.Glob(filepath.Join(post, "checkpoint-*.fovg"))
	if len(matches) != 1 {
		t.Fatalf("want one checkpoint, have %v", matches)
	}
	cpName := filepath.Base(matches[0])
	cpImg, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	wal2 := ""
	if names, _ := filepath.Glob(filepath.Join(post, "wal-*.log")); len(names) > 0 {
		for _, n := range names {
			wal2 = filepath.Base(n) // highest gen is the only one left post-checkpoint
		}
	}
	if wal2 == "" {
		t.Fatal("no post-checkpoint wal found")
	}

	verify := func(t *testing.T, dir string) {
		t.Helper()
		r := openTiered(t, dir)
		wantEntries(t, r, want)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write := func(t *testing.T, dir, name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("wal-rotated-nothing-persisted", func(t *testing.T) {
		dir := copyDir(t, base)
		write(t, dir, wal2, nil)
		verify(t, dir)
	})
	t.Run("manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man2); cut += killStride(len(man2)) {
			dir := copyDir(t, base)
			write(t, dir, wal2, nil)
			write(t, dir, manifestTmpFile, man2[:cut])
			verify(t, dir)
		}
	})
	t.Run("manifest-rotated-checkpoint-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(cpImg); cut += killStride(len(cpImg)) {
			dir := copyDir(t, base)
			write(t, dir, wal2, nil)
			write(t, dir, manifestFile, man2)
			write(t, dir, "checkpoint.tmp", cpImg[:cut])
			verify(t, dir)
		}
	})
	t.Run("checkpoint-renamed-old-wal-present", func(t *testing.T) {
		dir := copyDir(t, base)
		write(t, dir, wal2, nil)
		write(t, dir, manifestFile, man2)
		write(t, dir, cpName, cpImg)
		verify(t, dir)
	})
}

func TestInstallSegmentAndFinishBootstrap(t *testing.T) {
	// Leader with two sealed windows, a tombstone, and a memtable.
	ldir := t.TempDir()
	leader := openTiered(t, ldir)
	defer leader.Close()
	cold := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1), wentry(4, 1)}
	if err := leader.AppendRegister(cold); err != nil {
		t.Fatal(err)
	}
	if err := leader.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := leader.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	hot := wentry(50, futureWindow())
	shadow := wentry(3, 1)
	shadow.Provider = "re-registered"
	if err := leader.AppendRegister([]index.Entry{hot, shadow}); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	if len(ms.Segments) != 2 || len(ms.Tombstones) != 1 {
		t.Fatalf("leader manifest %+v", ms)
	}
	mem, _, _, hash := leader.CaptureMem()
	if hash != ms.Hash {
		t.Fatalf("manifest hash moved: %d vs %d", hash, ms.Hash)
	}

	// Follower installs segment 1, then "crashes" (close + reopen): the
	// staged install must survive and be skipped on resume.
	fdir := t.TempDir()
	fol := openTiered(t, fdir)
	raw0, err := leader.ReadSegment(ms.Segments[0].Window, ms.Segments[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.InstallSegment(ms.Segments[0], raw0); err != nil {
		t.Fatal(err)
	}
	if !fol.HasSegment(ms.Segments[0].Window, ms.Segments[0].Seq, ms.Segments[0].CRC) {
		t.Fatal("installed segment not visible to HasSegment")
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	fol = openTiered(t, fdir)
	defer fol.Close()
	if !fol.HasSegment(ms.Segments[0].Window, ms.Segments[0].Seq, ms.Segments[0].CRC) {
		t.Fatal("staged segment lost across restart")
	}
	if fol.HasSegment(ms.Segments[1].Window, ms.Segments[1].Seq, ms.Segments[1].CRC) {
		t.Fatal("uninstalled segment claimed present")
	}
	raw1, err := leader.ReadSegment(ms.Segments[1].Window, ms.Segments[1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.InstallSegment(ms.Segments[1], raw1); err != nil {
		t.Fatal(err)
	}
	got, err := fol.FinishBootstrap(ms, mem)
	if err != nil {
		t.Fatal(err)
	}
	want := leader.Entries()
	if stateHash(got) != stateHash(want) {
		t.Fatal("FinishBootstrap returned a set other than the leader's")
	}
	wantEntries(t, fol, want)
	if st := fol.TieredStats(); st.StagedSegments != 0 || st.Segments != 2 {
		t.Fatalf("post-bootstrap tier state %+v", st)
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	fol = openTiered(t, fdir)
	wantEntries(t, fol, want)

	// A non-durable follower assembles the same set in RAM.
	m := NewMem()
	for _, seg := range ms.Segments {
		raw, err := leader.ReadSegment(seg.Window, seg.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InstallSegment(seg, raw); err != nil {
			t.Fatal(err)
		}
		if !m.HasSegment(seg.Window, seg.Seq, seg.CRC) {
			t.Fatal("installed segment not visible to Mem.HasSegment")
		}
	}
	if got, err = m.FinishBootstrap(ms, mem); err != nil {
		t.Fatal(err)
	}
	if stateHash(got) != stateHash(want) {
		t.Fatal("Mem.FinishBootstrap returned a set other than the leader's")
	}
	if m.HasSegment(ms.Segments[0].Window, ms.Segments[0].Seq, ms.Segments[0].CRC) {
		t.Fatal("Mem kept its installed segments past FinishBootstrap")
	}
}

func TestInstallSegmentRejectsMismatch(t *testing.T) {
	ldir := t.TempDir()
	leader := openTiered(t, ldir)
	defer leader.Close()
	if err := leader.AppendRegister([]index.Entry{wentry(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := leader.CompactNow(); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	raw, err := leader.ReadSegment(ms.Segments[0].Window, ms.Segments[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	fol := openTiered(t, t.TempDir())
	defer fol.Close()
	bad := ms.Segments[0]
	bad.CRC++
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	for _, st := range []Store{fol, NewMem()} {
		if err := st.InstallSegment(bad, raw); err == nil {
			t.Fatalf("%T: CRC mismatch accepted", st)
		}
		if err := st.InstallSegment(ms.Segments[0], flipped); err == nil {
			t.Fatalf("%T: corrupt segment body accepted", st)
		}
		if st.HasSegment(ms.Segments[0].Window, ms.Segments[0].Seq, ms.Segments[0].CRC) {
			t.Fatalf("%T: rejected install left a segment behind", st)
		}
	}
}

// incompressibleEntry returns an entry whose encoding deflate cannot
// shrink: a full-length provider of random bytes dominates its few
// structured ones, so a segment of such entries stores its block raw.
func incompressibleEntry(id uint64, window int64, rng *rand.Rand) index.Entry {
	e := wentry(id, window)
	p := make([]byte, 256)
	rng.Read(p)
	e.Provider = string(p)
	return e
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name     string
		entries  []index.Entry
		deflated bool
	}{
		{"compressible", batch(1, 40, "alice"), true},
		{"incompressible", []index.Entry{incompressibleEntry(3, 0, rng), incompressibleEntry(1, 0, rng), incompressibleEntry(2, 0, rng)}, false},
	} {
		img, crc, err := EncodeSegment(0, tc.entries)
		if err != nil {
			t.Fatal(err)
		}
		if crc != segTrailerCRC(img) {
			t.Fatalf("%s: trailer CRC mismatch", tc.name)
		}
		if deflated := img[5]&segFlagDeflate != 0; deflated != tc.deflated {
			t.Fatalf("%s: block deflated=%v, want %v", tc.name, deflated, tc.deflated)
		}
		window, got, err := DecodeSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		if window != 0 || len(got) != len(tc.entries) {
			t.Fatalf("%s: decoded window=%d n=%d", tc.name, window, len(got))
		}
		if !reflect.DeepEqual(entrySet(got), entrySet(tc.entries)) {
			t.Fatalf("%s: entries changed across the segment round trip", tc.name)
		}
		// Deterministic encoding: same entries in another order, same bytes.
		reversed := append([]index.Entry(nil), tc.entries...)
		slices.Reverse(reversed)
		img2, _, err := EncodeSegment(0, reversed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatalf("%s: segment encoding is not deterministic", tc.name)
		}
	}
}

func TestTieredGaugesExported(t *testing.T) {
	dir := t.TempDir()
	var d *Disk
	d = openTiered(t, dir)
	defer d.Close()
	if err := d.AppendRegister([]index.Entry{wentry(1, 0), wentry(2, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.opts.Registry.WritePrometheus(&buf)
	out := buf.String()
	for _, metric := range []string{
		"fovr_store_segment_count 2",
		"fovr_store_segment_entries 2",
		"fovr_store_memtable_entries 0",
		"fovr_store_compaction_backlog 0",
		"fovr_store_compactions_total 2",
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
	if !strings.Contains(out, "fovr_store_segment_bytes") ||
		!strings.Contains(out, "fovr_store_segment_written_bytes_total") {
		t.Error("segment byte metrics missing")
	}
}

func TestBackgroundCompactionLoop(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir, func(o *Options) { o.CompactionInterval = 10 * time.Millisecond })
	defer d.Close()
	if err := d.AppendRegister([]index.Entry{wentry(1, 0)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d.TieredStats().Segments == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background compaction never sealed the cold window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantEntries(t, d, []index.Entry{wentry(1, 0)})
}

func TestLongEntriesStayInMemtable(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	defer d.Close()
	long := wentry(1, 0)
	long.Rep.EndMillis = long.Rep.StartMillis + 2*testWindowMs // wider than a window
	if err := d.AppendRegister([]index.Entry{long, wentry(2, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := d.TieredStats()
	if st.SegmentEntries != 1 || st.MemtableEntries != 1 {
		t.Fatalf("long entry should stay memtable-resident: %+v", st)
	}
	wantEntries(t, d, []index.Entry{long, wentry(2, 0)})
}

func BenchmarkCompactNow(b *testing.B) {
	dir := b.TempDir()
	opts := Options{
		Dir: dir, CheckpointInterval: -1,
		SegmentWindow: time.Minute, SegmentWindowAge: time.Millisecond, CompactionInterval: -1,
	}
	d, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var entries []index.Entry
	for id := uint64(1); id <= 5000; id++ {
		entries = append(entries, wentry(id, int64(id%8)))
	}
	if err := d.AppendRegister(entries); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.CompactNow(); err != nil {
			b.Fatal(err)
		}
	}
}
