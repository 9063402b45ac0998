package snapshot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 1}, 2000)
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		a, b := entries[i], got[i]
		if a.ID != b.ID || a.Provider != b.Provider {
			t.Fatalf("entry %d identity changed", i)
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

func TestReadRejectsDuplicateIDs(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 3}, 8)
	entries[5].ID = entries[2].ID
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	_, err := Read(&buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("duplicate id")) {
		t.Fatalf("error %q does not name the duplicate id", err)
	}
}

func TestEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d entries", len(got))
	}
}

// A decoded snapshot bulk-loads into a working index, as a server's
// boot path rebuilds one from its store.
func TestRestoreBuildsWorkingIndex(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 2}, 5000)
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	decoded, err := Read(&buf)
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
	// A round trip through Entries + snapshot again preserves the count.
	var buf2 bytes.Buffer
	if err := Write(&buf2, idx.Entries()); err != nil {
		t.Fatal(err)
	}
	again, err := Read(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 5000 {
		t.Fatalf("second generation has %d entries", len(again))
	}
}

func TestCorruptionDetected(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 3}, 100)
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Every single-byte flip must be rejected (the CRC sees everything).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte{}, data...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: corruption not detected (err=%v)", trial, err)
		}
	}
	// Truncations too.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestWriteRejectsInvalidEntries(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 4}, 1)
	entries[0].Rep.FoV.P.Lat = 95
	var buf bytes.Buffer
	if err := Write(&buf, entries); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

func TestCameraPersistence(t *testing.T) {
	entries := workload.Entries(workload.Config{Seed: 8}, 10)
	entries[3].Camera = fov.Camera{HalfAngleDeg: 22.5, RadiusMeters: 150}
	entries[7].Camera = fov.Camera{HalfAngleDeg: 40, RadiusMeters: 35}
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if got[i].Camera != entries[i].Camera {
			t.Fatalf("entry %d camera %+v, want %+v", i, got[i].Camera, entries[i].Camera)
		}
	}
}
