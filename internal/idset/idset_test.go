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
		if n := bits.OnesCount64(p.mask); len(p.vals) != n {
			t.Fatalf("page %d holds %d values for %d ids", k, len(p.vals), n)
		}
		live += len(p.vals)
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

// runOps decodes ops as a sequence of 9-byte operations and runs them
// through a Set and a Map beside Go maps, checking every answer and,
// every 1024 operations and at the end, the whole tables. The first byte
// picks the operation (its value mod 3: add — a Put for the map —,
// delete, get) and where the id falls (its value / 3 mod 3: among the
// 1024 lowest, among the 1024 highest, or anywhere); the other eight are
// the id, little-endian, of which the first two ranges take the top 10
// bits.
func runOps(t *testing.T, ops []byte) {
	var s Set
	var m Map
	sm := map[uint64]struct{}{}
	mm := map[uint64]int64{}
	for step := int64(0); len(ops) >= 9; ops, step = ops[9:], step+1 {
		id := binary.LittleEndian.Uint64(ops[1:9])
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
			m.Put(id, step)
			mm[id] = step
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
// wide, and, most often, the 1024 lowest, so pages fill and empty.
func TestTablesMatchGoMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []byte
		for step := 0; step < 20_000; step++ {
			op, where, id := byte(rng.Intn(3)), byte(2), rng.Uint64() // anywhere
			switch rng.Intn(4) {
			case 0:
				id = edgeIDs[rng.Intn(len(edgeIDs))]
			case 1, 2:
				where = 0 // among the 1024 lowest: the id's top 10 bits
			}
			ops = binary.LittleEndian.AppendUint64(append(ops, op+3*where), id)
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
					t.Fatalf("%d ids left keep room for %d values", left, cap(p.vals))
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
		0, 0, 0, 0, 0, 0, 0, 0, 0, // add 0
		3, 0, 0, 0, 0, 0, 0, 0, 0, // add 2^64-1
		2, 0, 0, 0, 0, 0, 0, 0, 0, // get 0
		1, 0, 0, 0, 0, 0, 0, 0, 0, // delete 0
		5, 0, 0, 0, 0, 0, 0, 0, 0, // get 2^64-1
	})
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0xc0, 0x0f, // add 63 (63<<54 >> 54)
		0, 0, 0, 0, 0, 0, 0, 0, 0x10, // add 64
		1, 0, 0, 0, 0, 0, 0, 0xc0, 0x0f, // delete 63
		0, 0, 0, 0, 0, 0, 0, 0xc0, 0x0f, // add 63 again
		2, 0, 0, 0, 0, 0, 0, 0, 0x10, // get 64
	})
	f.Fuzz(runOps)
}
