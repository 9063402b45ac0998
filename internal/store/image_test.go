package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/workload"
)

// encodeImage is EncodeSegment under window 0, the memtable form.
func encodeImage(t *testing.T, entries []index.Entry) []byte {
	t.Helper()
	img, _, err := EncodeSegment(0, entries)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// An image round-trips every entry in id order, to the codec's fixed
// point precision.
func TestImageRoundTrip(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 1}, 2000)
	_, got, err := DecodeSegment(encodeImage(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	byID := make(map[uint64]index.Entry, len(entries))
	for _, e := range entries {
		byID[e.ID] = e
	}
	for i, b := range got {
		a, ok := byID[b.ID]
		if !ok || a.Provider != b.Provider {
			t.Fatalf("entry %d identity changed", i)
		}
		if i > 0 && b.ID <= got[i-1].ID {
			t.Fatalf("entry %d out of id order", i)
		}
		if math.Abs(a.Rep.FoV.P.Lat-b.Rep.FoV.P.Lat) > 1.1e-7 ||
			math.Abs(a.Rep.FoV.P.Lng-b.Rep.FoV.P.Lng) > 1.1e-7 {
			t.Fatalf("entry %d position beyond fixed-point precision", i)
		}
		if geo.AngleDiff(a.Rep.FoV.Theta, b.Rep.FoV.Theta) > 0.006 {
			t.Fatalf("entry %d theta drifted", i)
		}
		if a.Rep.StartMillis != b.Rep.StartMillis || a.Rep.EndMillis != b.Rep.EndMillis {
			t.Fatalf("entry %d interval changed", i)
		}
	}
}

// A repeated id is refused at encode, and an image that carries one
// anyway is corrupt.
func TestImageRejectsDuplicateIDs(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 3}, 8)
	entries[5].ID = entries[2].ID
	if _, _, err := EncodeSegment(0, entries); err == nil || !strings.Contains(err.Error(), "duplicate id") {
		t.Fatalf("EncodeSegment = %v, want a duplicate id error", err)
	}
	var block bytes.Buffer
	for _, e := range []index.Entry{entries[2], entries[5]} {
		if err := appendEntry(&block, e); err != nil {
			t.Fatal(err)
		}
	}
	img, _, err := frameSegment(0, 2, block.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSegment(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeSegment = %v, want ErrCorrupt", err)
	}
}

func TestEmptyImage(t *testing.T) {
	window, got, err := DecodeSegment(encodeImage(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if window != 0 || len(got) != 0 {
		t.Fatalf("got window %d, %d entries", window, len(got))
	}
}

// A decoded image bulk-loads into a working index, as a server's boot
// path rebuilds one from its store.
func TestImageRestoreBuildsWorkingIndex(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 2}, 5000)
	_, decoded, err := DecodeSegment(encodeImage(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.BulkLoadRTree(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 5000 {
		t.Fatalf("restored %d entries", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A second generation through Entries and an image keeps the count.
	_, again, err := DecodeSegment(encodeImage(t, idx.Entries()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 5000 {
		t.Fatalf("second generation has %d entries", len(again))
	}
}

func TestImageCorruptionDetected(t *testing.T) {
	data := encodeImage(t, workload.Entries(workload.Config{Seed: 3}, 100))
	// Every single-byte flip must be rejected (the CRC sees everything).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte{}, data...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		if _, _, err := DecodeSegment(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: corruption not detected (err=%v)", trial, err)
		}
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, _, err := DecodeSegment(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d accepted (err=%v)", cut, err)
		}
	}
}

func TestImageEncodeRejectsInvalidEntries(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 4}, 1)
	entries[0].Rep.FoV.P.Lat = 95
	if _, _, err := EncodeSegment(0, entries); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

func TestImageCameraPersistence(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 8}, 10)
	entries[3].Camera = fov.Camera{HalfAngleDeg: 22.5, RadiusMeters: 150}
	entries[7].Camera = fov.Camera{HalfAngleDeg: 40, RadiusMeters: 35}
	_, got, err := DecodeSegment(encodeImage(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]fov.Camera, len(entries))
	for _, e := range entries {
		want[e.ID] = e.Camera
	}
	for _, e := range got {
		if e.Camera != want[e.ID] {
			t.Fatalf("entry %d camera %+v, want %+v", e.ID, e.Camera, want[e.ID])
		}
	}
}

// A directory still holding a checkpoint — the memtable image earlier
// builds wrote, in the retired FoVS container or as FoVG — fails Open
// with an error naming the file: skipping it would lose the state whose
// log it already retired.
func TestOpenRefusesFoVSCheckpoint(t *testing.T) {
	for _, name := range []string{"checkpoint-000000000002.fovs", "checkpoint-000000000002.fovg"} {
		dir := t.TempDir()
		d := open(t, dir)
		if err := d.AppendRegister(batch(1, 3, "p")); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		img, _, err := EncodeSegment(0, batch(10, 2, "q"))
		if err != nil {
			t.Fatal(err)
		}
		old := filepath.Join(dir, name)
		if err := os.WriteFile(old, img, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
		if err == nil {
			d2.Close()
			t.Fatalf("Open accepted a directory holding %s", name)
		}
		if !strings.Contains(err.Error(), old) {
			t.Fatalf("Open error %q does not name %s", err, old)
		}
	}
}
