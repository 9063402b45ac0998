package store

import (
	"bytes"
	"errors"
	"fmt"
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

// testWindowMs is the segment window the tiered tests run with.
const testWindowMs = int64(60_000)

// openTiered opens a store with one-minute segment windows and the
// background checkpoint off (tests seal with Checkpoint).
func openTiered(t *testing.T, dir string, mutate ...func(*Options)) *Disk {
	t.Helper()
	all := append([]func(*Options){func(o *Options) { o.SegmentWindow = time.Minute }}, mutate...)
	return open(t, dir, all...)
}

// wentry builds an entry that seals into the given time window.
func wentry(id uint64, window int64) index.Entry {
	e := entry(id, "p")
	e.Rep.StartMillis = window*testWindowMs + int64(id%59)*1000
	e.Rep.EndMillis = e.Rep.StartMillis + 500
	return e
}

func entrySet(entries []index.Entry) map[uint64]index.Entry {
	m := make(map[uint64]index.Entry, len(entries))
	for _, e := range entries {
		m[e.ID] = e
	}
	return m
}

// readEntries collects what ReadEntries streams.
func readEntries(s Store) ([]index.Entry, error) {
	var out []index.Entry
	err := s.ReadEntries(func(e *index.Entry) error {
		out = append(out, *e)
		return nil
	})
	return out, err
}

// finishBootstrap collects what FinishBootstrap streams.
func finishBootstrap(s Store, ms ManifestSnapshot) ([]index.Entry, error) {
	var out []index.Entry
	err := s.FinishBootstrap(ms, func(e *index.Entry) error {
		out = append(out, *e)
		return nil
	})
	return out, err
}

func wantEntries(t *testing.T, d *Disk, want []index.Entry) {
	t.Helper()
	entries, err := readEntries(d)
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
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Appended after the checkpoint: the memtable until the next one.
	hot := wentry(100, 1_000_000)
	all = append(all, hot)
	if err := d.AppendRegister([]index.Entry{hot}); err != nil {
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
	for _, name := range []string{segmentFileName(0, 1), segmentFileName(1, 1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("segment file %s missing: %v", name, err)
		}
	}
}

func TestTieredRecoverAfterSeal(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1)}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hot := wentry(50, 7)
	all = append(all, hot)
	if err := d.AppendRegister([]index.Entry{hot}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays only the log from the manifest's base generation:
	// the sealed entries stay in their files.
	r := openTiered(t, dir)
	defer r.Close()
	wantEntries(t, r, all)
	st := r.TieredStats()
	if st.Segments != 2 || st.MemtableEntries != 1 {
		t.Fatalf("recovered %+v, want 2 segments and the 1 entry appended after the seal", st)
	}
	// The next checkpoint seals the replayed entry without changing the
	// visible set.
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, r, all)
	if st = r.TieredStats(); st.MemtableEntries != 0 || st.Segments != 3 {
		t.Fatalf("after the second checkpoint: %+v", st)
	}
}

func TestTieredRemoveSealedEntry(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 0)}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
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
	if err := r.Checkpoint(); err != nil {
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
	if err := d.Checkpoint(); err != nil {
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
	if err := d.Checkpoint(); err != nil {
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
	if err := r.Checkpoint(); err != nil {
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

// TestTieredCheckpointIsIncremental pins that a checkpoint rewrites
// only the windows that changed since the last one: the others keep
// their segment files byte for byte.
func TestTieredCheckpointIsIncremental(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	var all []index.Entry
	for id := uint64(1); id <= 200; id++ {
		all = append(all, wentry(id, int64(id%4)))
	}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := d.ManifestSnapshot().Segments
	files := map[int64][]byte{}
	for _, m := range before {
		data, err := os.ReadFile(filepath.Join(dir, segmentFileName(m.Window, m.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		files[m.Window] = data
	}
	late := []index.Entry{wentry(1000, 1), wentry(1001, 1)}
	all = append(all, late...)
	if err := d.AppendRegister(late); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, m := range d.ManifestSnapshot().Segments {
		data, err := os.ReadFile(filepath.Join(dir, segmentFileName(m.Window, m.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		rewritten := !bytes.Equal(data, files[m.Window])
		if rewritten != (m.Window == 1) || (m.Seq == 2) != (m.Window == 1) {
			t.Fatalf("window %d: seq %d, rewritten=%v; want only window 1 rewritten", m.Window, m.Seq, rewritten)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTiered(t, dir)
	defer r.Close()
	wantEntries(t, r, all)
	if st := r.TieredStats(); st.MemtableEntries != 0 {
		t.Fatalf("recovery replayed sealed entries into the memtable: %+v", st)
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
// a store without a segment tier leaves behind — logs, no manifest:
// every entry is there, the first checkpoint seals the windows and
// writes a manifest, and a reopen serves the same set.
func TestFlatDirectoryUpgradesToManifest(t *testing.T) {
	dir := t.TempDir()
	var tail bytes.Buffer
	for _, rec := range []Record{
		{Op: opRegister, Entries: []index.Entry{hourEntry(1, 0), hourEntry(2, 0), hourEntry(3, 1)}},
		{Op: opRegister, Entries: []index.Entry{hourEntry(4, 1), hourEntry(5, 2)}},
		{Op: opRemove, IDs: []uint64{2}},
	} {
		if err := appendRecord(&tail, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walName(2)), tail.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []index.Entry{hourEntry(1, 0), hourEntry(3, 1), hourEntry(4, 1), hourEntry(5, 2)}
	manifest := filepath.Join(dir, manifestFile)

	d := open(t, dir)
	wantEntries(t, d, want)
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("open wrote a manifest before any checkpoint (stat: %v)", err)
	}
	if ms := d.ManifestSnapshot(); ms.BaseGen != 2 {
		t.Fatalf("base generation %d, want the oldest log, 2", ms.BaseGen)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("first checkpoint wrote no manifest: %v", err)
	}
	if st := d.TieredStats(); st.Segments != 3 || st.MemtableEntries != 0 {
		t.Fatalf("windows not sealed: %+v", st)
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
// against a tiered store (checkpointing along the way) and a plain
// map, and checks the visible set never diverges.
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
		if step%7 == 3 || step%13 == 11 {
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

// harvest runs fn on a copy of dir and returns the files it left that
// dir does not hold byte for byte, by name.
func harvest(t *testing.T, dir string, fn func(d *Disk)) map[string][]byte {
	t.Helper()
	post := copyDir(t, dir)
	d := openTiered(t, post)
	fn(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	names, err := os.ReadDir(post)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(post, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if old, err := os.ReadFile(filepath.Join(dir, de.Name())); err != nil || !bytes.Equal(old, data) {
			out[de.Name()] = data
		}
	}
	return out
}

// killVerify opens a crash-state directory twice — recovery must land
// on want, with an id mark at or past every id in want, and leave the
// directory consistent for the next open — and checks that recovery
// deleted every file in gone.
func killVerify(t *testing.T, dir string, want []index.Entry, gone ...string) {
	t.Helper()
	killVerifyMark(t, dir, want, 0, gone...)
}

// killVerifyMark is killVerify whose id mark must also reach high: an
// id handed out and removed again is in no visible entry, and the mark
// alone keeps it from being handed out twice.
func killVerifyMark(t *testing.T, dir string, want []index.Entry, high uint64, gone ...string) {
	t.Helper()
	for _, e := range want {
		high = max(high, e.ID)
	}
	for i := 0; i < 2; i++ {
		r := openTiered(t, dir)
		wantEntries(t, r, want)
		if got := r.HighID(); got < high {
			t.Fatalf("open %d: id mark %d, want at least %d", i+1, got, high)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range gone {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Fatalf("recovery left %s", name)
		}
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(names) != 0 {
		t.Fatalf("recovery left torn tmp files: %v", names)
	}
}

// writeFiles plants crash-state files in dir.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealKillPoints reconstructs every crash state a kill can leave
// behind across a one-window checkpoint's write points — the WAL
// rotation, the segment tmp write (at every byte), its rename, the
// manifest rotation (at every byte of manifest.tmp), and the deletes of
// the retired WAL and the superseded segment — and asserts recovery
// lands on the committed visible set every time. Covers both the first
// seal of a window (no manifest yet) and a re-seal (prior sequence
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
	checkpoint := func(d *Disk) {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	first := harvest(t, base, checkpoint)
	seg1, man1 := first[segmentFileName(0, 1)], first[manifestFile]
	if _, rotated := first[walName(2)]; seg1 == nil || man1 == nil || !rotated {
		t.Fatalf("first seal wrote %d files, want segment, manifest and wal 2", len(first))
	}

	// Stage 2: the sealed state plus more window-0 entries in WAL 2, then
	// the re-seal's artifacts (segment seq 2, manifest with base 3).
	pre2 := copyDir(t, base)
	writeFiles(t, pre2, first)
	os.Remove(filepath.Join(pre2, walName(1)))
	d = openTiered(t, pre2)
	late := []index.Entry{wentry(4, 0), wentry(5, 0)}
	if err := d.AppendRegister(late); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	second := harvest(t, pre2, checkpoint)
	seg2, man2 := second[segmentFileName(0, 2)], second[manifestFile]
	if _, rotated := second[walName(3)]; seg2 == nil || man2 == nil || !rotated {
		t.Fatalf("re-seal wrote %d files, want segment, manifest and wal 3", len(second))
	}

	want1 := all
	want2 := append(append([]index.Entry{}, all...), late...)
	rotated1 := map[string][]byte{walName(2): nil}
	rotated2 := map[string][]byte{walName(3): nil}

	t.Run("first-seal/segment-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(seg1); cut += killStride(len(seg1)) {
			dir := copyDir(t, base)
			writeFiles(t, dir, rotated1)
			writeFiles(t, dir, map[string][]byte{segmentFileName(0, 1) + ".tmp": seg1[:cut]})
			killVerify(t, dir, want1)
		}
	})
	t.Run("first-seal/segment-renamed-no-manifest", func(t *testing.T) {
		dir := copyDir(t, base)
		writeFiles(t, dir, rotated1)
		writeFiles(t, dir, map[string][]byte{segmentFileName(0, 1): seg1})
		killVerify(t, dir, want1, segmentFileName(0, 1))
	})
	t.Run("first-seal/manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man1); cut += killStride(len(man1)) {
			dir := copyDir(t, base)
			writeFiles(t, dir, rotated1)
			writeFiles(t, dir, map[string][]byte{segmentFileName(0, 1): seg1, manifestTmpFile: man1[:cut]})
			killVerify(t, dir, want1)
		}
	})
	t.Run("first-seal/complete", func(t *testing.T) {
		// The crash hit between the manifest rename and the WAL delete:
		// the retired WAL 1 must not replay, and goes.
		dir := copyDir(t, base)
		writeFiles(t, dir, rotated1)
		writeFiles(t, dir, map[string][]byte{segmentFileName(0, 1): seg1, manifestFile: man1})
		killVerify(t, dir, want1, walName(1))
	})

	t.Run("reflush/segment-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(seg2); cut += killStride(len(seg2)) {
			dir := copyDir(t, pre2)
			writeFiles(t, dir, rotated2)
			writeFiles(t, dir, map[string][]byte{segmentFileName(0, 2) + ".tmp": seg2[:cut]})
			killVerify(t, dir, want2)
		}
	})
	t.Run("reflush/segment-renamed-old-manifest", func(t *testing.T) {
		// seq 2 on disk but the manifest still names seq 1: recovery must
		// serve seq 1 + WAL replay, and sweep the unreferenced seq 2.
		dir := copyDir(t, pre2)
		writeFiles(t, dir, rotated2)
		writeFiles(t, dir, map[string][]byte{segmentFileName(0, 2): seg2})
		killVerify(t, dir, want2, segmentFileName(0, 2))
	})
	t.Run("reflush/manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man2); cut += killStride(len(man2)) {
			dir := copyDir(t, pre2)
			writeFiles(t, dir, rotated2)
			writeFiles(t, dir, map[string][]byte{segmentFileName(0, 2): seg2, manifestTmpFile: man2[:cut]})
			killVerify(t, dir, want2)
		}
	})
	t.Run("reflush/manifest-rotated-old-segment-undeleted", func(t *testing.T) {
		// The crash hit between the manifest rename and the deletes:
		// manifest v2 names seq 2 and base 3; WAL 2 and seq 1 linger.
		dir := copyDir(t, pre2)
		writeFiles(t, dir, rotated2)
		writeFiles(t, dir, map[string][]byte{segmentFileName(0, 2): seg2, manifestFile: man2})
		killVerify(t, dir, want2, walName(2), segmentFileName(0, 1))
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

// TestFailedCheckpointStaysPending fails a checkpoint after its log
// rotation — a directory squats on the name its segment's tmp file
// takes — and requires the records it did not seal to stay pending, so
// that the background loop retries with no further append and seals
// everything from the base generation, the generation the failed
// attempt rotated away included.
func TestFailedCheckpointStaysPending(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir, func(o *Options) { o.CheckpointInterval = 20 * time.Millisecond })
	defer func() { d.Close() }()
	squat := filepath.Join(dir, segmentFileName(0, 1)+".tmp")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	model := []index.Entry{wentry(1, 0), wentry(2, 0)}
	for _, e := range model {
		if err := d.AppendRegister([]index.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with its segment's tmp name taken")
	}
	h := d.Health()
	if h.AppendedSinceCheckpoint != 2 || h.MemtableEntries != 2 || h.Generation < 2 {
		t.Fatalf("after the failed checkpoint: %d records pending, %d memtable entries, generation %d; want 2, 2, ≥ 2",
			h.AppendedSinceCheckpoint, h.MemtableEntries, h.Generation)
	}
	if base := d.ManifestSnapshot().BaseGen; base != 1 {
		t.Fatalf("a failed checkpoint moved the base generation to %d", base)
	}

	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Health().AppendedSinceCheckpoint != 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint sealed the pending records")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The read waits on cpMu for the checkpoint to finish deleting the
	// log it sealed.
	wantEntries(t, d, model)
	h = d.Health()
	if ms := d.ManifestSnapshot(); ms.BaseGen != h.Generation || len(ms.Segments) != 1 {
		t.Fatalf("retried checkpoint: base generation %d of live %d, %d segments", ms.BaseGen, h.Generation, len(ms.Segments))
	}
	if st := d.TieredStats(); st.SegmentEntries != 2 || st.MemtableEntries != 0 {
		t.Fatalf("retried checkpoint: %+v", st)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if g, ok := parseGen(de.Name(), "wal-", ".log"); ok && g != h.Generation {
			t.Fatalf("%s outlived the checkpoint that sealed it", de.Name())
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openTiered(t, dir)
	wantEntries(t, d, model)
}

// TestFailingCheckpointRotatesOnce keeps a checkpoint failing — a
// directory squats on its segment's tmp name — while the background
// loop retries it every 10 ms, and requires the retries to reuse the
// generation the first attempt rotated to: the log stays at two files,
// and a cursor at the base generation stays servable. Once the squat
// is gone, everything seals and a reopen reads the model back.
func TestFailingCheckpointRotatesOnce(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir, func(o *Options) { o.CheckpointInterval = 10 * time.Millisecond })
	defer func() { d.Close() }()
	squat := filepath.Join(dir, segmentFileName(0, 1)+".tmp")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	model := []index.Entry{wentry(1, 0), wentry(2, 0)}
	if err := d.AppendRegister(model); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		if len(wals) > 2 {
			t.Fatalf("failing checkpoints left %d log generations: %v", len(wals), wals)
		}
		base := d.ManifestSnapshot().BaseGen
		if _, status, err := d.ReadLog(base, 0); err != nil || status == TailReset {
			t.Fatalf("ReadLog(%d, 0) = status %d, err %v; the base generation must stay servable", base, status, err)
		}
	}
	if h := d.Health(); h.AppendedSinceCheckpoint != 1 {
		t.Fatalf("%d records pending while every checkpoint fails, want 1", h.AppendedSinceCheckpoint)
	}

	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Health().AppendedSinceCheckpoint != 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint sealed the pending records")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantEntries(t, d, model)
	if st := d.TieredStats(); st.SegmentEntries != 2 || st.MemtableEntries != 0 {
		t.Fatalf("retried checkpoint: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openTiered(t, dir)
	wantEntries(t, d, model)
}

// TestCheckpointManifestKillPoints walks the crash states of a
// checkpoint that rewrites several windows at once — a sealed window
// losing a tombstoned copy and a copy that moved away, a first seal,
// and the move's destination — in the order the checkpoint writes
// them: the WAL rotation, each segment's tmp (at every byte) and
// rename, manifest.tmp (at every byte), the manifest rename, and the
// WAL delete. Every state must recover the committed visible set: the
// old manifest with the WAL from its base before the manifest rename,
// the new one after it. Every state must also keep the id mark past an
// id registered and removed before the checkpoint: before the manifest
// rename only the old WAL remembers it, after it only the new
// manifest's highID does.
func TestCheckpointManifestKillPoints(t *testing.T) {
	base := t.TempDir()
	d := openTiered(t, base)
	all := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 0)}
	if err := d.AppendRegister(all); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tombstone a sealed id, move another into window 2, add a new
	// window 1 — all only in WAL + RAM until the checkpoint.
	if err := d.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	moved := wentry(3, 2)
	moved.Provider = "moved"
	fresh := []index.Entry{wentry(9, 1), wentry(10, 1), moved}
	if err := d.AppendRegister(fresh); err != nil {
		t.Fatal(err)
	}
	// The highest id yet, registered and removed again: no segment and
	// no tombstone carries it.
	const dropped = 11
	if err := d.AppendRegister([]index.Entry{wentry(dropped, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRemove([]uint64{dropped}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([]index.Entry{all[0]}, fresh...)

	files := harvest(t, base, func(d *Disk) {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	segs := []string{segmentFileName(0, 2), segmentFileName(1, 1), segmentFileName(2, 1)}
	for _, name := range append(segs, manifestFile, walName(3)) {
		if _, ok := files[name]; !ok {
			t.Fatalf("checkpoint did not write %s (wrote %d files)", name, len(files))
		}
	}
	man := files[manifestFile]
	if !strings.Contains(string(man), `"baseGen":3`) {
		t.Fatalf("checkpoint manifest does not name base generation 3: %s", man)
	}
	if !strings.Contains(string(man), `"highID":11`) {
		t.Fatalf("checkpoint manifest does not carry id mark %d: %s", dropped, man)
	}

	// state returns a copy of base with the WAL rotated and the first n
	// segments renamed into place.
	state := func(t *testing.T, n int) string {
		dir := copyDir(t, base)
		writeFiles(t, dir, map[string][]byte{walName(3): nil})
		for _, name := range segs[:n] {
			writeFiles(t, dir, map[string][]byte{name: files[name]})
		}
		return dir
	}

	t.Run("wal-rotated-nothing-persisted", func(t *testing.T) {
		killVerifyMark(t, state(t, 0), want, dropped)
	})
	for i, name := range segs {
		img := files[name]
		t.Run("segment-tmp-torn/"+name, func(t *testing.T) {
			for cut := 0; cut <= len(img); cut += killStride(len(img)) {
				dir := state(t, i)
				writeFiles(t, dir, map[string][]byte{name + ".tmp": img[:cut]})
				killVerifyMark(t, dir, want, dropped, segs[:i]...)
			}
		})
		t.Run("segment-renamed/"+name, func(t *testing.T) {
			killVerifyMark(t, state(t, i+1), want, dropped, segs[:i+1]...)
		})
	}
	t.Run("manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man); cut += killStride(len(man)) {
			dir := state(t, len(segs))
			writeFiles(t, dir, map[string][]byte{manifestTmpFile: man[:cut]})
			killVerifyMark(t, dir, want, dropped, segs...)
		}
	})
	t.Run("manifest-rotated-old-wal-present", func(t *testing.T) {
		dir := state(t, len(segs))
		writeFiles(t, dir, map[string][]byte{manifestFile: man})
		killVerifyMark(t, dir, want, dropped, walName(2), segmentFileName(0, 1))
	})
	t.Run("old-wal-deleted-old-segments-present", func(t *testing.T) {
		dir := state(t, len(segs))
		writeFiles(t, dir, map[string][]byte{manifestFile: man})
		os.Remove(filepath.Join(dir, walName(2)))
		killVerifyMark(t, dir, want, dropped, segmentFileName(0, 1))
	})
}

// TestFinishBootstrapKillPoints walks the crash states of a follower's
// FinishBootstrap in the order it writes them — the staged files
// installed, each promotion rename, the WAL rotation, manifest.tmp (at
// every byte), the manifest rename, and the old WAL's delete. The
// follower's own checkpoint already wrote seg-0-1, the name of one of
// the leader's segments, with other contents, so a promotion onto the
// leader's name would destroy a file the follower's manifest still
// names. Every state before the manifest rename must recover the
// follower's pre-bootstrap set, every state after it the leader's.
func TestFinishBootstrapKillPoints(t *testing.T) {
	leader := openTiered(t, t.TempDir())
	defer leader.Close()
	if err := leader.AppendRegister([]index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := leader.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	if len(ms.Segments) != 2 || len(ms.Tombstones) != 1 {
		t.Fatalf("leader manifest %+v", ms)
	}
	leaderSet := []index.Entry{wentry(1, 0), wentry(3, 1)}

	// The follower seals its own window 0 at seq 1, keeps one entry in
	// its memtable, and installs the leader's segments.
	base := t.TempDir()
	fol := openTiered(t, base)
	own := []index.Entry{wentry(100, 0), wentry(101, 0)}
	if err := fol.AppendRegister(own); err != nil {
		t.Fatal(err)
	}
	if err := fol.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hot := wentry(102, 2)
	if err := fol.AppendRegister([]index.Entry{hot}); err != nil {
		t.Fatal(err)
	}
	if seg := fol.ManifestSnapshot().Segments; len(seg) != 1 || seg[0].Seq != ms.Segments[0].Seq ||
		seg[0].Window != ms.Segments[0].Window || seg[0].CRC == ms.Segments[0].CRC {
		t.Fatalf("follower segments %+v do not collide with the leader's %+v", seg, ms.Segments[0])
	}
	staged := make([]string, len(ms.Segments))
	for i, m := range ms.Segments {
		raw, err := leader.ReadSegment(m.Window, m.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.InstallSegment(m, raw); err != nil {
			t.Fatal(err)
		}
		staged[i] = stagedFileName(m.Window, m.Seq)
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	pre := append(append([]index.Entry{}, own...), hot)

	files := harvest(t, base, func(d *Disk) {
		if _, err := finishBootstrap(d, ms); err != nil {
			t.Fatal(err)
		}
	})
	// promoted[i] is the live file staged[i] became, found by window.
	promoted := make([]string, len(ms.Segments))
	for name := range files {
		for i, m := range ms.Segments {
			if strings.HasPrefix(name, fmt.Sprintf("seg-%d-", m.Window)) {
				promoted[i] = name
			}
		}
	}
	for i, name := range append(slices.Clone(promoted), manifestFile, walName(3)) {
		if _, ok := files[name]; name == "" || !ok {
			t.Fatalf("finish bootstrap wrote no file %d of the promotions, manifest and wal 3 (wrote %d files)", i, len(files))
		}
	}
	man := files[manifestFile]

	// state returns a copy of base with the first n staged files
	// promoted, and past them the given files written.
	state := func(t *testing.T, n int, more map[string][]byte) string {
		dir := copyDir(t, base)
		for i := range promoted[:n] {
			writeFiles(t, dir, map[string][]byte{promoted[i]: files[promoted[i]]})
			os.Remove(filepath.Join(dir, staged[i]))
		}
		writeFiles(t, dir, more)
		return dir
	}
	all := len(promoted)
	rotated := map[string][]byte{walName(3): nil}

	t.Run("staged-installed", func(t *testing.T) {
		killVerify(t, state(t, 0, nil), pre)
	})
	for i := range promoted {
		t.Run("promoted/"+promoted[i], func(t *testing.T) {
			killVerify(t, state(t, i+1, nil), pre)
		})
	}
	t.Run("wal-rotated", func(t *testing.T) {
		killVerify(t, state(t, all, rotated), pre)
	})
	t.Run("manifest-tmp-torn", func(t *testing.T) {
		for cut := 0; cut <= len(man); cut += killStride(len(man)) {
			dir := state(t, all, rotated)
			writeFiles(t, dir, map[string][]byte{manifestTmpFile: man[:cut]})
			killVerify(t, dir, pre)
		}
	})
	t.Run("manifest-renamed", func(t *testing.T) {
		dir := state(t, all, rotated)
		writeFiles(t, dir, map[string][]byte{manifestFile: man})
		killVerify(t, dir, leaderSet, walName(2), segmentFileName(0, 1))
	})
	t.Run("old-wal-deleted", func(t *testing.T) {
		dir := state(t, all, rotated)
		writeFiles(t, dir, map[string][]byte{manifestFile: man})
		os.Remove(filepath.Join(dir, walName(2)))
		killVerify(t, dir, leaderSet, segmentFileName(0, 1))
	})
}

// tailFrom reads leader's log from (gen, 0) until caught up and hands
// each record to apply — what a follower does after FinishBootstrap.
func tailFrom(t *testing.T, leader *Disk, gen uint64, apply func(Record)) {
	t.Helper()
	frames, _, _ := drainTail(t, leader, gen, 0)
	recs, _, err := DecodeWAL(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		apply(rec)
	}
}

// TestFinishBootstrapSinkErrorKeepsStaged: an error from the sink — the
// index refusing an entry — aborts a Disk follower's finish before it
// renames anything, and is not taken for a damaged staged file. The
// staged files and the pre-bootstrap state stay, and a retry finishes
// from the same files.
func TestFinishBootstrapSinkErrorKeepsStaged(t *testing.T) {
	leader := openTiered(t, t.TempDir())
	defer leader.Close()
	if err := leader.AppendRegister([]index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	fdir := t.TempDir()
	fol := openTiered(t, fdir)
	defer fol.Close()
	own := wentry(9, 2)
	if err := fol.AppendRegister([]index.Entry{own}); err != nil {
		t.Fatal(err)
	}
	for _, seg := range ms.Segments {
		raw, err := leader.ReadSegment(seg.Window, seg.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.InstallSegment(seg, raw); err != nil {
			t.Fatal(err)
		}
	}
	staged, _ := filepath.Glob(filepath.Join(fdir, "staged-*"))
	refused := errors.New("refused")
	err := fol.FinishBootstrap(ms, func(e *index.Entry) error {
		if e.ID == 2 {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) {
		t.Fatalf("FinishBootstrap = %v, want the sink's error", err)
	}
	if left, _ := filepath.Glob(filepath.Join(fdir, "staged-*")); len(staged) != len(ms.Segments) || !slices.Equal(left, staged) {
		t.Fatalf("staged files %v after the refused finish, want %v", left, staged)
	}
	wantEntries(t, fol, []index.Entry{own})
	got, err := finishBootstrap(fol, ms)
	if err != nil {
		t.Fatal(err)
	}
	if ids := sortedIDs(got); !slices.Equal(ids, []uint64{1, 2, 3}) {
		t.Fatalf("retried finish streamed ids %v, want [1 2 3]", ids)
	}
	wantEntries(t, fol, got)
}

func TestInstallSegmentAndFinishBootstrap(t *testing.T) {
	// Leader with two sealed windows, a tombstone, and a memtable
	// holding a fresh entry and a re-registered sealed one.
	ldir := t.TempDir()
	leader := openTiered(t, ldir)
	defer leader.Close()
	cold := []index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1), wentry(4, 1)}
	if err := leader.AppendRegister(cold); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := leader.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	hot := wentry(50, 9)
	shadow := wentry(3, 1)
	shadow.Provider = "re-registered"
	if err := leader.AppendRegister([]index.Entry{hot, shadow}); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	if len(ms.Segments) != 2 || len(ms.Tombstones) != 1 || ms.BaseGen != 2 {
		t.Fatalf("leader manifest %+v", ms)
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
	got, err := finishBootstrap(fol, ms)
	if err != nil {
		t.Fatal(err)
	}
	// The segments less the tombstones: ids 1, 3 (sealed copy) and 4.
	if ids := sortedIDs(got); !slices.Equal(ids, []uint64{1, 3, 4}) {
		t.Fatalf("FinishBootstrap returned ids %v, want [1 3 4]", ids)
	}
	if st := fol.TieredStats(); st.Segments != 2 || st.MemtableEntries != 0 {
		t.Fatalf("post-bootstrap tier state %+v", st)
	}
	if left, _ := filepath.Glob(filepath.Join(fdir, "staged-*")); len(left) != 0 {
		t.Fatalf("staged files outlived the bootstrap: %v", left)
	}
	// The log from the base generation brings the follower to the leader.
	tailFrom(t, leader, ms.BaseGen, func(rec Record) {
		var err error
		if rec.Op == OpRegister {
			err = fol.AppendRegister(rec.Entries)
		} else {
			err = fol.AppendRemove(rec.IDs)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	want := leader.Entries()
	wantEntries(t, fol, want)
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
	if got, err = finishBootstrap(m, ms); err != nil {
		t.Fatal(err)
	}
	visible := entrySet(got)
	tailFrom(t, leader, ms.BaseGen, func(rec Record) {
		for _, e := range rec.Entries {
			visible[e.ID] = e
		}
		for _, id := range rec.IDs {
			delete(visible, id)
		}
	})
	if stateHash(modelEntries(visible)) != stateHash(want) {
		t.Fatal("Mem.FinishBootstrap plus the tail is a set other than the leader's")
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
	if err := leader.Checkpoint(); err != nil {
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

// TestBootstrapResumesFromStagedListDirectory opens a follower directory
// stopped mid-bootstrap by a build whose manifest listed the staged
// segments: a manifest with a "staged" key beside one staged file. The
// file alone must resume the bootstrap — HasSegment reports it, and a
// FinishBootstrap over the leader's manifest fetches only the other
// segment.
func TestBootstrapResumesFromStagedListDirectory(t *testing.T) {
	leader := openTiered(t, t.TempDir())
	defer leader.Close()
	if err := leader.AppendRegister([]index.Entry{wentry(1, 0), wentry(2, 0), wentry(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	if len(ms.Segments) != 2 {
		t.Fatalf("leader manifest %+v", ms)
	}
	m0 := ms.Segments[0]
	raw0, err := leader.ReadSegment(m0.Window, m0.Seq)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man := fmt.Sprintf(`{"version":1,"segments":null,"staged":[{"window":%d,"seq":%d,"count":%d,"bytes":%d,"crc":%d}],"baseGen":1}`+"\n",
		m0.Window, m0.Seq, m0.Count, m0.Bytes, m0.CRC)
	writeFiles(t, dir, map[string][]byte{
		manifestFile:                      []byte(man),
		walName(1):                        nil,
		stagedFileName(m0.Window, m0.Seq): raw0,
	})

	fol := openTiered(t, dir)
	defer fol.Close()
	var fetched []SegmentMeta
	for _, m := range ms.Segments {
		if fol.HasSegment(m.Window, m.Seq, m.CRC) {
			continue
		}
		raw, err := leader.ReadSegment(m.Window, m.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.InstallSegment(m, raw); err != nil {
			t.Fatal(err)
		}
		fetched = append(fetched, m)
	}
	if !slices.Equal(fetched, ms.Segments[1:]) {
		t.Fatalf("resumed bootstrap fetched %+v, want only %+v", fetched, ms.Segments[1:])
	}
	if _, err := finishBootstrap(fol, ms); err != nil {
		t.Fatal(err)
	}
	want := leader.Entries()
	wantEntries(t, fol, want)
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	fol = openTiered(t, dir)
	wantEntries(t, fol, want)
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
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.opts.Registry.WritePrometheus(&buf)
	out := buf.String()
	for _, metric := range []string{
		"fovr_store_segment_count 2",
		"fovr_store_segment_entries 2",
		"fovr_store_memtable_entries 0",
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

// TestLongEntriesSealIntoStartWindow pins that an entry longer than a
// window seals like any other, into the window its start falls in: no
// entry stays memtable-resident past a checkpoint.
func TestLongEntriesSealIntoStartWindow(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	long := wentry(1, 0)
	long.Rep.EndMillis = long.Rep.StartMillis + 2*testWindowMs // wider than a window
	want := []index.Entry{long, wentry(2, 0)}
	if err := d.AppendRegister(want); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := d.TieredStats()
	if st.Segments != 1 || st.SegmentEntries != 2 || st.MemtableEntries != 0 {
		t.Fatalf("long entry should seal into its start window: %+v", st)
	}
	wantEntries(t, d, want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTiered(t, dir)
	defer r.Close()
	wantEntries(t, r, want)
}

// BenchmarkCheckpoint times a checkpoint that seals one late arrival
// into each of 8 windows of 5 000 sealed entries.
func BenchmarkCheckpoint(b *testing.B) {
	d, err := Open(Options{Dir: b.TempDir(), CheckpointInterval: -1, SegmentWindow: time.Minute})
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
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	next := uint64(5001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		late := make([]index.Entry, 8)
		for w := range late {
			late[w] = wentry(next, int64(w))
			next++
		}
		if err := d.AppendRegister(late); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHighIDMark: the id mark is the largest id any register record
// carried, removed or not. A checkpoint writes it into the manifest, so
// it survives the log that held the record; a follower's bootstrap
// copies the leader's; and a manifest written before the mark existed
// opens with a mark taken from its segments and log.
func TestHighIDMark(t *testing.T) {
	ldir := t.TempDir()
	leader := openTiered(t, ldir)
	if leader.HighID() != 0 {
		t.Fatalf("an empty store's mark is %d", leader.HighID())
	}
	if err := leader.AppendRegister([]index.Entry{wentry(1, 0), wentry(2, 0), wentry(9, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := leader.AppendRemove([]uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := leader.AppendRegister([]index.Entry{wentry(3, 0)}); err != nil {
		t.Fatal(err)
	}
	ms := leader.ManifestSnapshot()
	if leader.HighID() != 9 || ms.HighID != 9 {
		t.Fatalf("mark %d, served %d; want 9 (the removed id's)", leader.HighID(), ms.HighID)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	leader = openTiered(t, ldir)
	if leader.HighID() != 9 {
		t.Fatalf("after a restart the mark is %d, want 9", leader.HighID())
	}

	fol := openTiered(t, t.TempDir())
	defer fol.Close()
	for _, m := range ms.Segments {
		raw, err := leader.ReadSegment(m.Window, m.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.InstallSegment(m, raw); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := finishBootstrap(fol, ms); err != nil {
		t.Fatal(err)
	}
	if fol.HighID() != 9 {
		t.Fatalf("a follower's bootstrap left its mark at %d, want the leader's 9", fol.HighID())
	}

	// Strip the mark from the leader's manifest: the segments hold ids
	// up to 2 and the log id 3.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ldir, manifestFile)
	doc, err := loadManifest(ldir)
	if err != nil {
		t.Fatal(err)
	}
	doc.HighID = 0
	if err := saveManifest(ldir, doc); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || bytes.Contains(data, []byte("highID")) {
		t.Fatalf("manifest without a mark: %s, %v", data, err)
	}
	leader = openTiered(t, ldir)
	defer leader.Close()
	if leader.HighID() != 3 {
		t.Fatalf("a manifest without a mark opens with mark %d, want 3", leader.HighID())
	}
}
