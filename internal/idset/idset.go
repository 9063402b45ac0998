// Package idset holds sets of uint64 ids, and maps from them to int64,
// in pages of 64 ids. The server hands ids out densely — an upload takes
// the next run of them — so a page of a live table is mostly full, and
// a table costs a fraction of a hash-map slot per id.
//
// A page is keyed by id>>6 and carries a 64-bit mask of the ids it
// holds, bit id&63 each. A Set keeps only the mask. A Map's page also
// keeps the values of its live ids, in id order, so the value of an id
// sits at the popcount of the mask bits below its own: a page holds
// only the values its live ids need, and one whose ids are mostly gone
// shrinks with them. A page whose last id goes is freed.
//
// The values of adjacent ids lie close together (the store maps an id
// to its time window or log generation), so a Map page keeps each as a
// one-byte offset from a base of its own, and eight bytes a value only
// while its live values span 256 or more: about 2 B a dense id.
//
// The zero Set and the zero Map are empty and ready to use. Neither is
// safe for concurrent use.
package idset

import (
	"encoding/binary"
	"math/bits"
)

// split returns the page key of id and its bit in the page's mask.
func split(id uint64) (key, bit uint64) {
	return id >> 6, 1 << (id & 63)
}

// Set is a set of ids.
type Set struct {
	pages map[uint64]uint64 // id>>6 -> mask of the page's ids
	n     int
}

// Len returns the number of ids in the set.
func (s *Set) Len() int { return s.n }

// Has reports whether id is in the set.
func (s *Set) Has(id uint64) bool {
	k, bit := split(id)
	return s.pages[k]&bit != 0
}

// Add puts id in the set, reporting whether it was absent.
func (s *Set) Add(id uint64) bool {
	k, bit := split(id)
	mask := s.pages[k]
	if mask&bit != 0 {
		return false
	}
	if s.pages == nil {
		s.pages = make(map[uint64]uint64)
	}
	s.pages[k] = mask | bit
	s.n++
	return true
}

// Delete takes id out of the set, reporting whether it was present.
func (s *Set) Delete(id uint64) bool {
	k, bit := split(id)
	mask := s.pages[k]
	if mask&bit == 0 {
		return false
	}
	if mask &^= bit; mask == 0 {
		delete(s.pages, k)
	} else {
		s.pages[k] = mask
	}
	s.n--
	return true
}

// Range calls fn with every id of the set, in unspecified order, until
// fn returns false. fn must not change the set.
func (s *Set) Range(fn func(id uint64) bool) {
	for k, mask := range s.pages {
		for ; mask != 0; mask &= mask - 1 {
			if !fn(k<<6 | uint64(bits.TrailingZeros64(mask))) {
				return
			}
		}
	}
}

// page is one page of a Map: the mask of its live ids and their values
// in id order. A narrow page keeps each value in one byte, its offset
// from base. A page is wide, each value in eight bytes of its own
// (little-endian), exactly while its live values span 256 or more.
type page struct {
	mask uint64
	base int64 // what a narrow page's offsets count from
	vals []byte
	wide bool
}

// width returns the bytes one value takes in p.
func (p *page) width() int {
	if p.wide {
		return 8
	}
	return 1
}

// at returns the value at index i.
func (p *page) at(i int) int64 {
	if p.wide {
		return int64(binary.LittleEndian.Uint64(p.vals[8*i:]))
	}
	return p.base + int64(p.vals[i])
}

// set makes v the value at index i. A value a narrow page cannot offset
// from its base, or any value of a wide page, first re-lays the page for
// the span of v and the other live values.
func (p *page) set(i int, v int64) {
	if p.wide || v < p.base || uint64(v)-uint64(p.base) >= 256 {
		p.relay(p.span(i, v, v))
	}
	if p.wide {
		binary.LittleEndian.PutUint64(p.vals[8*i:], uint64(v))
	} else {
		p.vals[i] = byte(v - p.base)
	}
}

// span returns the least and the greatest of lo, hi and the live values
// of p but the one at index skip.
func (p *page) span(skip int, lo, hi int64) (int64, int64) {
	for j := range bits.OnesCount64(p.mask) {
		if j != skip {
			v := p.at(j)
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

// relay lays p out for live values from lo to hi: narrow from base lo
// when they span less than 256, else wide. A narrow page that stays
// narrow is rebased in its own bytes; only a change of width allocates.
func (p *page) relay(lo, hi int64) {
	wide := uint64(hi)-uint64(lo) >= 256
	n := bits.OnesCount64(p.mask)
	vals := p.vals
	switch {
	case !wide:
		if p.wide {
			vals = make([]byte, n)
		}
		for j := range n {
			vals[j] = byte(p.at(j) - lo)
		}
	case !p.wide:
		vals = make([]byte, 8*n)
		for j := range n {
			binary.LittleEndian.PutUint64(vals[8*j:], uint64(p.at(j)))
		}
	}
	p.vals, p.wide, p.base = vals, wide, lo
}

// Map maps ids to int64 values.
type Map struct {
	pages map[uint64]*page
	n     int
}

// Len returns the number of ids in the map.
func (m *Map) Len() int { return m.n }

// Get returns the value of id, and whether the map holds id.
func (m *Map) Get(id uint64) (int64, bool) {
	k, bit := split(id)
	p := m.pages[k]
	if p == nil || p.mask&bit == 0 {
		return 0, false
	}
	return p.at(bits.OnesCount64(p.mask & (bit - 1))), true
}

// Put sets the value of id.
func (m *Map) Put(id uint64, v int64) {
	k, bit := split(id)
	p := m.pages[k]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = &page{base: v}
		m.pages[k] = p
	}
	i := bits.OnesCount64(p.mask & (bit - 1))
	if p.mask&bit == 0 {
		// Open a slot at i; set fills it.
		w := p.width()
		p.mask |= bit
		p.vals = append(p.vals, make([]byte, w)...)
		copy(p.vals[(i+1)*w:], p.vals[i*w:])
		m.n++
	}
	p.set(i, v)
}

// Range calls fn with every id of the map and its value, in unspecified
// order, until fn returns false. fn must not change the map.
func (m *Map) Range(fn func(id uint64, v int64) bool) {
	for k, p := range m.pages {
		i := 0
		for mask := p.mask; mask != 0; mask &= mask - 1 {
			if !fn(k<<6|uint64(bits.TrailingZeros64(mask)), p.at(i)) {
				return
			}
			i++
		}
	}
}

// Delete takes id out of the map, reporting whether it was present.
func (m *Map) Delete(id uint64) bool {
	k, bit := split(id)
	p := m.pages[k]
	if p == nil || p.mask&bit == 0 {
		return false
	}
	m.n--
	if p.mask &^= bit; p.mask == 0 {
		delete(m.pages, k)
		return true
	}
	i, w := bits.OnesCount64(p.mask&(bit-1)), p.width()
	p.vals = append(p.vals[:i*w], p.vals[(i+1)*w:]...)
	if p.wide {
		// The value that kept the span wide may be the one gone.
		v := p.at(0)
		p.relay(p.span(-1, v, v))
	}
	if len(p.vals) <= cap(p.vals)/4 {
		// Most of the room is for ids that are gone: give it back. Put
		// grows the page again by doubling.
		p.vals = append(make([]byte, 0, len(p.vals)), p.vals...)
	}
	return true
}
