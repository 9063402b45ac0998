package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/store"
)

// bootCorpus is the size of the sealed directory the load pins boot and
// bootstrap from.
const bootCorpus = 50_000

// sealedDir fills dir with bootCorpus entries in uploads of 20, across
// eight one-hour windows and 50 providers, seals them with one
// checkpoint and returns the store, whose WAL then holds nothing.
func sealedDir(t *testing.T, dir string) *store.Disk {
	t.Helper()
	st := openStore(t, dir)
	rng := rand.New(rand.NewSource(16))
	for id := uint64(1); id <= bootCorpus; id += 20 {
		batch := make([]index.Entry, 0, 20)
		for j := id; j < id+20; j++ {
			start := int64(j%8)*3_600_000 + rng.Int63n(3_000_000)
			batch = append(batch, index.Entry{
				ID:       j,
				Provider: fmt.Sprintf("phone-%03d", j%50),
				Rep:      rep(geo.Offset(center, rng.Float64()*360, rng.Float64()*5_000), rng.Float64()*360, start, start+rng.Int63n(120_000)),
			})
		}
		if err := st.AppendRegister(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return st
}

// allocPerEntry returns the bytes f allocates per corpus entry.
func allocPerEntry(f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / bootCorpus
}

// TestLoadAllocPerEntry pins what loading the serving index from the
// store allocates per entry: at boot (New over a reopened, sealed
// directory), and when a follower's bootstrap finishes over a Mem store
// and over a Disk store. The store streams each visible entry into the
// index's STR loader as it walks a segment, so what is allocated is
// each segment's read and inflation once, the 40-B slot array, STR's
// 32-B sort keys and the tree; a whole-state []Entry (80 B an entry)
// fails every pin, and so does a Disk finish that reads its segments
// twice, or STR sorting 56-B rectangle slots (210, 189 and 237 B). The
// Disk figure exceeds the Mem one by the file read, the finish's id
// list and the store's id→window map only. Each bound is about 7 %
// above what this path measures (180, 159 and 193 B, with nodes of 32
// slots; 186, 165 and 199 B with nodes of 16); the whole-state path
// allocated 269, 229 and 336 B.
func TestLoadAllocPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are taken with the race detector off")
	}
	leaderDir := t.TempDir()
	leader := sealedDir(t, leaderDir)
	ms := leader.ManifestSnapshot()
	install := func(s *Server) {
		for _, seg := range ms.Segments {
			raw, err := leader.ReadSegment(seg.Window, seg.Seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InstallSegment(seg, raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(name string, got, limit float64, s *Server) {
		t.Helper()
		if n := s.Index().Len(); n != bootCorpus {
			t.Fatalf("%s: index holds %d entries, want %d", name, n, bootCorpus)
		}
		t.Logf("%s: %.1f B allocated per entry", name, got)
		if got > limit {
			t.Errorf("%s allocates %.1f B per entry, want ≤ %.0f", name, got, limit)
		}
	}

	st := openStore(t, leaderDir)
	defer st.Close()
	var booted *Server
	check("New", allocPerEntry(func() { booted = durableServer(t, st) }), 193, booted)

	mem := newServer(t)
	install(mem)
	check("FinishBootstrap (Mem)", allocPerEntry(func() {
		if err := mem.FinishBootstrap(ms); err != nil {
			t.Fatal(err)
		}
	}), 170, mem)

	fst := openStore(t, t.TempDir())
	defer fst.Close()
	disk := durableServer(t, fst)
	install(disk)
	check("FinishBootstrap (Disk)", allocPerEntry(func() {
		if err := disk.FinishBootstrap(ms); err != nil {
			t.Fatal(err)
		}
	}), 207, disk)
}
