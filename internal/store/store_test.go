package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/segment"
)

func entry(id uint64, provider string) index.Entry {
	return index.Entry{
		ID:       id,
		Provider: provider,
		Rep: segment.Representative{
			FoV: fov.FoV{
				P:     geo.Point{Lat: 40.0 + float64(id)*1e-5, Lng: 116.326},
				Theta: float64(id*37%360) + 0.25,
			},
			StartMillis: int64(id) * 1000,
			EndMillis:   int64(id)*1000 + 5000,
		},
		Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
	}
}

func batch(start uint64, n int, provider string) []index.Entry {
	out := make([]index.Entry, n)
	for i := range out {
		out[i] = entry(start+uint64(i), provider)
	}
	return out
}

func sortedIDs(entries []index.Entry) []uint64 {
	ids := make([]uint64, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// open opens a test store with background loops disabled unless the
// test opts in.
func open(t *testing.T, dir string, mutate ...func(*Options)) *Disk {
	t.Helper()
	opts := Options{Dir: dir, CheckpointInterval: -1, Registry: obs.NewRegistry()}
	for _, m := range mutate {
		m(&opts)
	}
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMemIsInert(t *testing.T) {
	m := NewMem()
	if err := m.AppendRegister(batch(1, 3, "a")); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRemove([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadEntries(); got != nil || err != nil {
		t.Fatalf("Mem.ReadEntries() = %v, %v, want nil", got, err)
	}
	if err := m.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Mem.Checkpoint() = %v, want ErrNotDurable", err)
	}
	if m.Durable() {
		t.Fatal("Mem claims durability")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: opRegister, Entries: batch(1, 5, "alice")},
		{Op: opRemove, IDs: []uint64{2, 4}},
		{Op: opRegister, Entries: batch(100, 1, "bob")},
		{Op: opRemove, IDs: nil},
		{Op: opRegister, Entries: nil},
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := appendRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, valid, err := DecodeWAL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if valid != buf.Len() {
		t.Fatalf("valid = %d, want %d", valid, buf.Len())
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op ||
			len(got[i].Entries) != len(recs[i].Entries) ||
			len(got[i].IDs) != len(recs[i].IDs) {
			t.Fatalf("record %d shape mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Entries {
			if !reflect.DeepEqual(got[i].Entries[j], recs[i].Entries[j]) {
				t.Fatalf("record %d entry %d: %+v != %+v", i, j, got[i].Entries[j], recs[i].Entries[j])
			}
		}
		for j := range recs[i].IDs {
			if got[i].IDs[j] != recs[i].IDs[j] {
				t.Fatalf("record %d id %d mismatch", i, j)
			}
		}
	}
}

func TestAppendRecordRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := entry(1, "x")
	bad.Rep.EndMillis = bad.Rep.StartMillis - 1
	if err := appendRecord(&buf, Record{Op: opRegister, Entries: []index.Entry{bad}}); err == nil {
		t.Fatal("invalid entry journaled")
	}
	if err := appendRecord(&buf, Record{Op: 99}); err == nil {
		t.Fatal("unknown op journaled")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed appends left %d bytes", buf.Len())
	}
}

func TestDiskAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir)
	if !d.Durable() {
		t.Fatal("Disk not durable")
	}
	if err := d.AppendRegister(batch(1, 10, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRegister(batch(11, 5, "bob")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRemove([]uint64{3, 7}); err != nil {
		t.Fatal(err)
	}
	want := sortedIDs(d.Entries())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := open(t, dir)
	defer d2.Close()
	got := sortedIDs(d2.Entries())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ids %v, want %v", got, want)
	}
	if n, _ := d2.RecoveryStats(); n != 13 {
		t.Fatalf("recovered %d entries, want 13", n)
	}
	// Entry payloads survive byte-exact, not just the id set.
	byID := map[uint64]index.Entry{}
	for _, e := range d2.Entries() {
		byID[e.ID] = e
	}
	wantEntry := entry(5, "alice")
	if !reflect.DeepEqual(byID[5], wantEntry) {
		t.Fatalf("entry 5 = %+v, want %+v", byID[5], wantEntry)
	}
}

func TestDiskOpsAfterCloseFail(t *testing.T) {
	d := open(t, t.TempDir())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRegister(batch(1, 1, "a")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestCheckpointRotatesAndCleans pins what a checkpoint leaves: the
// memtable empty, the manifest naming BaseGen = the new generation, one
// (empty) live log, no checkpoint file; and that a restart replays only
// the log from BaseGen on.
func TestCheckpointRotatesAndCleans(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir)
	if err := d.AppendRegister(batch(1, 20, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := d.TieredStats(); st.MemtableEntries != 0 || st.SegmentEntries != 19 {
		t.Fatalf("after checkpoint: %+v, want 19 sealed entries and an empty memtable", st)
	}
	doc, _, err := loadManifest(dir)
	if err != nil || doc.BaseGen != 2 {
		t.Fatalf("manifest base generation %d (err %v), want 2", doc.BaseGen, err)
	}
	var wals []string
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if _, ok := parseGen(de.Name(), "wal-", ".log"); ok {
			wals = append(wals, de.Name())
		}
		if strings.HasPrefix(de.Name(), "checkpoint") {
			t.Fatalf("checkpoint wrote %s", de.Name())
		}
	}
	if len(wals) != 1 || wals[0] != walName(2) {
		t.Fatalf("after checkpoint: wals=%v, want just %s", wals, walName(2))
	}
	st, err := os.Stat(filepath.Join(dir, wals[0]))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("live segment holds %d bytes after checkpoint, want 0", st.Size())
	}

	// Appends continue into the new generation, and they alone are the
	// memtable.
	if err := d.AppendRegister(batch(100, 3, "bob")); err != nil {
		t.Fatal(err)
	}
	if st := d.TieredStats(); st.MemtableEntries != 3 {
		t.Fatalf("memtable holds %d entries, want the 3 appended after the rotation", st.MemtableEntries)
	}
	want := sortedIDs(d.Entries())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A generation below BaseGen that a crash kept from being deleted is
	// not replayed: plant one that would resurrect the removed id 2.
	var stale bytes.Buffer
	if err := appendRecord(&stale, Record{Op: opRegister, Entries: batch(2, 1, "alice")}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), stale.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := open(t, dir)
	defer d2.Close()
	if got := sortedIDs(d2.Entries()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if st := d2.TieredStats(); st.MemtableEntries != 3 {
		t.Fatalf("restart replayed %d memtable entries, want the 3 from the base generation on", st.MemtableEntries)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation below the base survived recovery (stat: %v)", err)
	}
}

func TestRepeatedCheckpointsAndRestarts(t *testing.T) {
	dir := t.TempDir()
	want := []uint64{}
	for round := 0; round < 4; round++ {
		d := open(t, dir)
		if got := sortedIDs(d.Entries()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d recovered %v, want %v", round, got, want)
		}
		b := batch(uint64(round)*100+1, 5, fmt.Sprintf("p%d", round))
		if err := d.AppendRegister(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, sortedIDs(b)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if round%2 == 0 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			d := open(t, dir, func(o *Options) {
				o.Fsync = policy
				o.FsyncEvery = time.Millisecond
			})
			for i := 0; i < 5; i++ {
				if err := d.AppendRegister(batch(uint64(i)*10+1, 3, "p")); err != nil {
					t.Fatal(err)
				}
			}
			if d.Len() != 15 {
				t.Fatalf("Len = %d, want 15", d.Len())
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2 := open(t, dir)
			defer d2.Close()
			if d2.Len() != 15 {
				t.Fatalf("recovered %d entries under %s, want 15", d2.Len(), policy)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, ok := range []string{"always", "interval", "never"} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Errorf("ParseFsyncPolicy(%q) = %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, func(o *Options) { o.Fsync = FsyncNever })
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter+i)*10 + 1
				if err := d.AppendRegister(batch(id, 2, "p")); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					_ = d.AppendRemove([]uint64{id})
				}
			}
		}(w)
	}
	// Checkpoints race the writers; every append must land either in
	// the checkpoint or in a surviving segment.
	for i := 0; i < 3; i++ {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	want := sortedIDs(d.Entries())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := open(t, dir)
	defer d2.Close()
	if got := sortedIDs(d2.Entries()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d ids, want %d", len(got), len(want))
	}
}

// TestKillPointRecovery is the crash harness: it builds a log of
// committed batches, then truncates it at every byte boundary and
// asserts recovery always yields exactly the batches whose final byte
// survived — a prefix of the commit order, never a partial batch.
func TestKillPointRecovery(t *testing.T) {
	// Build the reference log in a throwaway store.
	ref := t.TempDir()
	d := open(t, ref)
	type committed struct {
		end int64 // log offset just past this batch's record
		ids []uint64
	}
	var commits []committed
	// A commit point follows every record — a removal is its own
	// atomic unit, not part of the preceding upload.
	mark := func() {
		d.mu.Lock()
		end := d.walSize
		d.mu.Unlock()
		commits = append(commits, committed{end, sortedIDs(d.Entries())})
	}
	for i := 0; i < 6; i++ {
		b := batch(uint64(i)*10+1, i+1, fmt.Sprintf("p%d", i))
		if err := d.AppendRegister(b); err != nil {
			t.Fatal(err)
		}
		mark()
		if i == 3 {
			if err := d.AppendRemove([]uint64{31}); err != nil {
				t.Fatal(err)
			}
			mark()
		}
	}
	walPath := filepath.Join(ref, walName(1))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != commits[len(commits)-1].end {
		t.Fatalf("log is %d bytes, last commit at %d", len(full), commits[len(commits)-1].end)
	}

	for cut := 0; cut <= len(full); cut++ {
		// The state a crash at offset `cut` must recover: the last
		// commit wholly on disk.
		var want []uint64
		for _, c := range commits {
			if c.end <= int64(cut) {
				want = c.ids
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := open(t, dir)
		got := sortedIDs(r.Entries())
		if len(got) == 0 {
			got = []uint64{}
		}
		if want == nil {
			want = []uint64{}
		}
		if !reflect.DeepEqual(got, want) {
			r.Close()
			t.Fatalf("cut at %d/%d: recovered %v, want %v", cut, len(full), got, want)
		}
		// The torn tail was truncated on disk, so a second recovery
		// from the same directory sees a clean log.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2 := open(t, dir)
		if got2 := sortedIDs(r2.Entries()); !reflect.DeepEqual(got2, want) {
			t.Fatalf("cut at %d: second recovery %v, want %v", cut, got2, want)
		}
		r2.Close()
	}
}

func TestMidLogCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir)
	for i := 0; i < 4; i++ {
		if err := d.AppendRegister(batch(uint64(i)*10+1, 3, "p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: not a torn tail, and
	// recovery must refuse rather than silently drop records. (Flipping
	// a header length byte instead would read as a torn header, which
	// DecodeWAL deliberately truncates.)
	rec1 := 8 + int(binary.LittleEndian.Uint32(data))
	data[rec1+8+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, CheckpointInterval: -1, Registry: obs.NewRegistry()}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt mid-log = %v, want ErrCorrupt", err)
	}
}

// TestOpenRefusesCorruptLiveSegment: once a checkpoint has retired the
// WAL behind a segment, the file is the only copy of its window, so a
// damaged one fails Open with ErrCorrupt naming it rather than
// recovering a silently smaller state.
func TestOpenRefusesCorruptLiveSegment(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir)
	if err := d.AppendRegister(batch(1, 8, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRegister(batch(100, 2, "bob")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentFileName(0, 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir, CheckpointInterval: -1, Registry: obs.NewRegistry()})
	if err == nil {
		r.Close()
		t.Fatal("Open recovered a store whose live segment is damaged")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), seg) {
		t.Fatalf("Open error %q, want ErrCorrupt naming %s", err, seg)
	}
}

func TestBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, func(o *Options) { o.CheckpointInterval = 10 * time.Millisecond })
	defer d.Close()
	if err := d.AppendRegister(batch(1, 5, "p")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if doc, _, err := loadManifest(dir); err == nil && doc.BaseGen >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
