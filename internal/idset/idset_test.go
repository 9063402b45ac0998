package idset

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// edgeIDs are the ids at page boundaries and at both ends of the range.
var edgeIDs = []uint64{0, 1, 62, 63, 64, 65, 127, 128, math.MaxUint64 - 64, math.MaxUint64 - 63, math.MaxUint64 - 1, math.MaxUint64}

// checkSet asserts that s holds exactly the ids of model, and that no
// page is empty.
func checkSet(t *testing.T, s *Set, model map[uint64]struct{}) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	for k, mask := range s.pages {
		if mask == 0 {
			t.Fatalf("page %d is empty but kept", k)
		}
	}
	for id := range model {
		if !s.Has(id) {
			t.Fatalf("id %d missing", id)
		}
	}
	seen := 0
	s.Range(func(id uint64) bool {
		if _, ok := model[id]; !ok {
			t.Fatalf("Range yields id %d the model lacks", id)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range yields %d ids, model has %d", seen, len(model))
	}
}

// checkMap asserts that m maps exactly the ids of model to its values,
// and that no page is empty or keeps a value per dead id.
func checkMap(t *testing.T, m *Map, model map[uint64]int64) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", m.Len(), len(model))
	}
	for id, want := range model {
		if got, ok := m.Get(id); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", id, got, ok, want)
		}
	}
	live := 0
	for k, p := range m.pages {
		if p.mask == 0 {
			t.Fatalf("page %d is empty but kept", k)
		}
		n := bits.OnesCount64(p.mask)
		if len(p.vals) != n*p.width() {
			t.Fatalf("page %d holds %d bytes for %d ids (wide=%v)", k, len(p.vals), n, p.wide)
		}
		// Narrow exactly while the live values span less than 256, so no
		// sequence of writes leaves a page wide that one byte would hold.
		lo, hi := p.span(-1, p.at(0), p.at(0))
		if wide := uint64(hi)-uint64(lo) >= 256; p.wide != wide {
			t.Fatalf("page %d has values %d..%d but wide=%v", k, lo, hi, p.wide)
		}
		live += n
	}
	if live != len(model) {
		t.Fatalf("pages hold %d ids, model has %d", live, len(model))
	}
	seen := make(map[uint64]bool, len(model))
	m.Range(func(id uint64, v int64) bool {
		if want, ok := model[id]; !ok || v != want || seen[id] {
			t.Fatalf("Range yields id %d with %d (model has %d, %v; seen before %v)", id, v, want, ok, seen[id])
		}
		seen[id] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("Range yields %d ids, model has %d", len(seen), len(model))
	}
	// Early stop: returning false ends the walk at that call.
	stop, calls := len(model)/2+1, 0
	m.Range(func(uint64, int64) bool {
		calls++
		return calls < stop
	})
	if want := min(stop, len(model)); calls != want {
		t.Fatalf("Range stopping at call %d made %d calls, want %d", stop, calls, want)
	}
}

// opValue decodes the value byte of an operation: most bytes are a
// small value, 0..159, so a page of them is narrow; 160..223 land on
// 224..287, across the 255/256 span from the small ones in both
// directions; 224..247 are -1..-24; and the last eight are the ends of
// the int64 range and values near them, far from everything else.
func opValue(b byte) int64 {
	switch {
	case b < 160:
		return int64(b)
	case b < 224:
		return int64(b) + 64
	case b < 248:
		return 223 - int64(b)
	}
	return [...]int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MinInt64 + 255, math.MaxInt64 - 255, 1 << 40, -1 << 40}[b-248]
}

// runOps decodes ops as a sequence of 10-byte operations and runs them
// through a Set and a Map beside Go maps, checking every answer and,
// every 1024 operations and at the end, the whole tables. The first byte
// picks the operation (its value mod 3: add — a Put for the map —,
// delete, get) and where the id falls (its value / 3 mod 3: among the
// 1024 lowest, among the 1024 highest, or anywhere); the second is the
// value a Put writes (opValue), so a Put of a live id changes its value;
// the other eight are the id, little-endian, of which the first two
// ranges take the top 10 bits.
func runOps(t *testing.T, ops []byte) {
	var s Set
	var m Map
	sm := map[uint64]struct{}{}
	mm := map[uint64]int64{}
	for step := 0; len(ops) >= 10; ops, step = ops[10:], step+1 {
		id, v := binary.LittleEndian.Uint64(ops[2:10]), opValue(ops[1])
		switch ops[0] / 3 % 3 {
		case 0:
			id >>= 54
		case 1:
			id = math.MaxUint64 - id>>54
		}
		switch ops[0] % 3 {
		case 0:
			_, had := sm[id]
			if s.Add(id) == had {
				t.Fatalf("Add(%d) with the id present=%v", id, had)
			}
			sm[id] = struct{}{}
			m.Put(id, v)
			mm[id] = v
		case 1:
			_, had := sm[id]
			if s.Delete(id) != had || m.Delete(id) != had {
				t.Fatalf("Delete(%d) with the id present=%v", id, had)
			}
			delete(sm, id)
			delete(mm, id)
		case 2:
			_, had := sm[id]
			want := mm[id]
			if got, ok := m.Get(id); s.Has(id) != had || ok != had || got != want {
				t.Fatalf("Get(%d) = %d, %v; want %d, %v", id, got, ok, want, had)
			}
		}
		if step%1024 == 0 {
			checkSet(t, &s, sm)
			checkMap(t, &m, mm)
		}
	}
	checkSet(t, &s, sm)
	checkMap(t, &m, mm)
}

// TestTablesMatchGoMap runs random operations through runOps: ids at
// page boundaries and at both ends of the range (edgeIDs), ids spread
// wide, and, most often, the 1024 lowest, so pages fill and empty. Most
// values are small; the share of the others (opValue's bytes 160..255)
// rises with the seed, from pages that are narrow nearly always to pages
// that are wide nearly always, so pages go wide and come back narrow.
func TestTablesMatchGoMap(t *testing.T) {
	for seed, far := range []float64{0.005, 0.02, 0.08, 0.3} {
		rng := rand.New(rand.NewSource(int64(seed + 1)))
		var ops []byte
		for step := 0; step < 20_000; step++ {
			op, where, id := byte(rng.Intn(3)), byte(2), rng.Uint64() // anywhere
			switch rng.Intn(4) {
			case 0:
				id = edgeIDs[rng.Intn(len(edgeIDs))]
			case 1, 2:
				where = 0 // among the 1024 lowest: the id's top 10 bits
			}
			v := byte(rng.Intn(160))
			if rng.Float64() < far {
				v = byte(160 + rng.Intn(96))
			}
			ops = binary.LittleEndian.AppendUint64(append(ops, op+3*where, v), id)
		}
		runOps(t, ops)
	}
}

// TestEmptyPageIsFreed deletes every id of a page, one by one in a
// random order, and the page must go with its last id; an id added back
// gets its value, not a stale one.
func TestEmptyPageIsFreed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, base := range []uint64{0, 64, math.MaxUint64 - 63} {
		var s Set
		var m Map
		for i := uint64(0); i < 64; i++ {
			s.Add(base + i)
			m.Put(base+i, int64(i))
		}
		s.Add(base + 64) // a neighbour page, which must stay
		m.Put(base+64, -1)
		if base+64 < base {
			s.Delete(base + 64) // wrapped around to 0: no neighbour
			m.Delete(base + 64)
		}
		pages := len(m.pages)
		for n, i := range rng.Perm(64) {
			id := base + uint64(i)
			if !s.Delete(id) || !m.Delete(id) {
				t.Fatalf("Delete(%d) found nothing", id)
			}
			if s.Delete(id) || m.Delete(id) {
				t.Fatalf("Delete(%d) twice found it twice", id)
			}
			if left := 63 - n; left > 0 {
				if p := m.pages[base>>6]; cap(p.vals) > 4*len(p.vals) {
					t.Fatalf("%d ids left keep %d bytes of room", left, cap(p.vals))
				}
			}
		}
		if _, ok := s.pages[base>>6]; ok {
			t.Fatalf("base %d: the empty set page is kept", base)
		}
		if _, ok := m.pages[base>>6]; ok || len(m.pages) != pages-1 {
			t.Fatalf("base %d: the empty map page is kept (%d pages, had %d)", base, len(m.pages), pages)
		}
		if !s.Add(base+9) || s.Has(base+8) {
			t.Fatal("re-adding to a freed set page")
		}
		m.Put(base+9, 99)
		if v, ok := m.Get(base + 9); !ok || v != 99 {
			t.Fatalf("re-added id reads %d, %v", v, ok)
		}
		if _, ok := m.Get(base + 8); ok {
			t.Fatal("a deleted id came back with its page")
		}
	}
}

// FuzzIDTable runs the input through runOps.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // add 0 -> 0
		3, 7, 0, 0, 0, 0, 0, 0, 0, 0, // add 2^64-1 -> 7
		2, 0, 0, 0, 0, 0, 0, 0, 0, 0, // get 0
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, // delete 0
		5, 0, 0, 0, 0, 0, 0, 0, 0, 0, // get 2^64-1
	})
	f.Add([]byte{
		0, 5, 0, 0, 0, 0, 0, 0, 0xc0, 0x0f, // add 63 (63<<54 >> 54) -> 5
		0, 9, 0, 0, 0, 0, 0, 0, 0, 0x10, // add 64 -> 9
		1, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0x0f, // delete 63
		0, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0x0f, // add 63 again -> 0
		2, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, // get 64
	})
	// One page through its widths: narrow at 100, rebased down to 0, wide
	// at 287, narrow again once 287 is rewritten to 200, wide at
	// math.MinInt64 and narrow again once that id is deleted.
	f.Add([]byte{
		0, 100, 0, 0, 0, 0, 0, 0, 0, 0, // add 0 -> 100
		0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, // add 1 -> 0
		0, 223, 0, 0, 0, 0, 0, 0, 0x80, 0, // add 2 -> 287
		0, 200, 0, 0, 0, 0, 0, 0, 0x80, 0, // add 2 -> 200
		0, 248, 0, 0, 0, 0, 0, 0, 0xc0, 0, // add 3 -> math.MinInt64
		1, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0, // delete 3
		2, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, // get 2
	})
	// The ends of the int64 range are 1 apart modulo 2^64, not 1 apart.
	f.Add([]byte{
		0, 249, 0, 0, 0, 0, 0, 0, 0, 0, // add 0 -> math.MaxInt64
		0, 248, 0, 0, 0, 0, 0, 0, 0x40, 0, // add 1 -> math.MinInt64
		2, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, // get 1
	})
	f.Fuzz(runOps)
}
