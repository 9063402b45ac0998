package store

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"fovr/internal/obs"
)

// drainTail reads the log from cur until caught up, returning the
// concatenated frames and the final cursor. It follows the cursor
// contract: TailData advances by length, TailAdvance moves to the next
// generation, TailReset fails the test.
func drainTail(t *testing.T, d *Disk, gen uint64, off int64) ([]byte, uint64, int64) {
	t.Helper()
	var out []byte
	for {
		data, status, err := d.ReadLog(gen, off)
		if err != nil {
			t.Fatalf("ReadLog(%d, %d): %v", gen, off, err)
		}
		switch status {
		case TailData:
			if len(data) == 0 {
				return out, gen, off
			}
			out = append(out, data...)
			off += int64(len(data))
		case TailAdvance:
			gen, off = gen+1, 0
		case TailReset:
			t.Fatalf("ReadLog(%d, %d): unexpected TailReset", gen, off)
		}
	}
}

func TestStoreIDPersists(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir)
	id := d.StoreID()
	if len(id) != 32 {
		t.Fatalf("store id %q: want 32 hex chars", id)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := open(t, dir)
	defer d2.Close()
	if d2.StoreID() != id {
		t.Errorf("store id changed across reopen: %q != %q", d2.StoreID(), id)
	}
	other := open(t, t.TempDir())
	defer other.Close()
	if other.StoreID() == id {
		t.Errorf("two directories share store id %q", id)
	}
}

func TestReadLogTailsAppends(t *testing.T) {
	d := open(t, t.TempDir())
	defer d.Close()
	gen, off := d.LogCursor()
	if off != 0 {
		t.Fatalf("fresh store cursor = (%d, %d), want offset 0", gen, off)
	}
	if err := d.AppendRegister(batch(1, 3, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRemove([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	frames, _, end := drainTail(t, d, gen, off)
	if headGen, headOff := d.LogCursor(); headOff != end || headGen != gen {
		t.Fatalf("drain ended at (%d, %d), head at (%d, %d)", gen, end, headGen, headOff)
	}
	recs, valid, err := DecodeWAL(frames)
	if err != nil || valid != len(frames) {
		t.Fatalf("shipped frames do not decode: valid=%d of %d, err=%v", valid, len(frames), err)
	}
	if len(recs) != 2 || len(recs[0].Entries) != 3 || !reflect.DeepEqual(recs[1].IDs, []uint64{2}) {
		t.Fatalf("decoded records = %+v", recs)
	}
	// Caught up: empty TailData, not an error.
	data, status, err := d.ReadLog(gen, end)
	if err != nil || status != TailData || len(data) != 0 {
		t.Fatalf("caught-up read = (%d bytes, %v, %v), want empty TailData", len(data), status, err)
	}
}

func TestReadLogAdvanceAndResetAcrossCheckpoint(t *testing.T) {
	d := open(t, t.TempDir())
	defer d.Close()
	if err := d.AppendRegister(batch(1, 4, "alice")); err != nil {
		t.Fatal(err)
	}
	gen, final := d.LogCursor()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A tailer that had consumed all of the old generation crosses the
	// rotation without re-bootstrapping.
	if _, status, err := d.ReadLog(gen, final); err != nil || status != TailAdvance {
		t.Fatalf("at end of retired gen: status=%v err=%v, want TailAdvance", status, err)
	}
	// A laggard mid-generation cannot be served — the checkpoint deleted
	// the segment — and must re-bootstrap.
	if _, status, err := d.ReadLog(gen, final/2); err != nil || status != TailReset {
		t.Fatalf("mid retired gen: status=%v err=%v, want TailReset", status, err)
	}
	// Beyond any committed byte, and in a generation that never existed.
	if _, status, _ := d.ReadLog(gen+1, 1<<40); status != TailReset {
		t.Fatalf("past head: status=%v, want TailReset", status)
	}
	if _, status, _ := d.ReadLog(gen+99, 0); status != TailReset {
		t.Fatalf("unknown generation: status=%v, want TailReset", status)
	}
}

func TestFinishBootstrapInvalidatesOldCursors(t *testing.T) {
	d := open(t, t.TempDir())
	defer d.Close()
	if err := d.AppendRegister(batch(1, 4, "alice")); err != nil {
		t.Fatal(err)
	}
	gen, final := d.LogCursor()
	if _, err := finishBootstrap(d, ManifestSnapshot{}); err != nil {
		t.Fatal(err)
	}
	// The old generation completed, but the bootstrap replaced the
	// history: a TailAdvance here would silently graft the new log onto
	// pre-bootstrap state. It must be TailReset.
	if _, status, err := d.ReadLog(gen, final); err != nil || status != TailReset {
		t.Fatalf("pre-bootstrap cursor: status=%v err=%v, want TailReset", status, err)
	}
}

// TestManifestBaseGenCursorTailsAppends pins the bootstrap cursor: the
// manifest's segments hold everything before its BaseGen, and the log
// from (BaseGen, 0) holds exactly the records appended since.
func TestManifestBaseGenCursorTailsAppends(t *testing.T) {
	d := open(t, t.TempDir())
	defer d.Close()
	if err := d.AppendRegister(batch(1, 3, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRegister(batch(4, 2, "bob")); err != nil {
		t.Fatal(err)
	}
	ms := d.ManifestSnapshot()
	sealed := 0
	for _, m := range ms.Segments {
		sealed += m.Count
	}
	if sealed != 3 || len(ms.Tombstones) != 0 {
		t.Fatalf("manifest seals %d entries with tombstones %v, want the 3 appended before the checkpoint", sealed, ms.Tombstones)
	}
	frames, _, _ := drainTail(t, d, ms.BaseGen, 0)
	recs, _, err := DecodeWAL(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(sortedIDs(recs[0].Entries), []uint64{4, 5}) {
		t.Fatalf("frames from the base generation decode to %+v", recs)
	}
}

func TestWaitForLogWakesOnAppend(t *testing.T) {
	d := open(t, t.TempDir())
	defer d.Close()
	gen, off := d.LogCursor()

	// Behind the head: returns immediately.
	if err := d.AppendRegister(batch(1, 1, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitForLog(context.Background(), gen, off); err != nil {
		t.Fatalf("behind head: %v", err)
	}

	// At the head: blocks until the next append.
	gen, off = d.LogCursor()
	done := make(chan error, 1)
	go func() { done <- d.WaitForLog(context.Background(), gen, off) }()
	select {
	case err := <-done:
		t.Fatalf("caught-up wait returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := d.AppendRegister(batch(2, 1, "alice")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait after append: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForLog missed the append")
	}

	// Context expiry unblocks a quiet head.
	gen, off = d.LogCursor()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := d.WaitForLog(ctx, gen, off); err != context.DeadlineExceeded {
		t.Fatalf("quiet wait = %v, want deadline exceeded", err)
	}
}

func TestWaitForLogWakesOnRotation(t *testing.T) {
	d := open(t, t.TempDir())
	defer d.Close()
	if err := d.AppendRegister(batch(1, 1, "alice")); err != nil {
		t.Fatal(err)
	}
	gen, off := d.LogCursor()
	done := make(chan error, 1)
	go func() { done <- d.WaitForLog(context.Background(), gen, off) }()
	time.Sleep(10 * time.Millisecond)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait across rotation: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForLog missed the rotation")
	}
	// And the woken tailer's next read crosses generations cleanly.
	if _, status, err := d.ReadLog(gen, off); err != nil || status != TailAdvance {
		t.Fatalf("post-rotation read: status=%v err=%v, want TailAdvance", status, err)
	}
}

// Satellite: the durable store exports its WAL size and generation as
// gauges.
func TestWALGaugesExported(t *testing.T) {
	reg := obs.NewRegistry()
	d := open(t, t.TempDir(), func(o *Options) { o.Registry = reg })
	defer d.Close()
	if err := d.AppendRegister(batch(1, 2, "alice")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	_, size := d.LogCursor()
	if size == 0 {
		t.Fatal("append left wal empty")
	}
	if !strings.Contains(text, "fovr_wal_size_bytes") {
		t.Error("metrics lack fovr_wal_size_bytes")
	}
	if !strings.Contains(text, "fovr_wal_generation 1") {
		t.Error("metrics lack fovr_wal_generation 1")
	}
}
