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
// The zero Set and the zero Map are empty and ready to use. Neither is
// safe for concurrent use.
package idset

import (
	"math/bits"
	"slices"
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
// in id order.
type page struct {
	mask uint64
	vals []int64
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
	return p.vals[bits.OnesCount64(p.mask&(bit-1))], true
}

// Put sets the value of id.
func (m *Map) Put(id uint64, v int64) {
	k, bit := split(id)
	p := m.pages[k]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = &page{}
		m.pages[k] = p
	}
	i := bits.OnesCount64(p.mask & (bit - 1))
	if p.mask&bit != 0 {
		p.vals[i] = v
		return
	}
	p.mask |= bit
	p.vals = append(p.vals, 0)
	copy(p.vals[i+1:], p.vals[i:])
	p.vals[i] = v
	m.n++
}

// Range calls fn with every id of the map and its value, in unspecified
// order, until fn returns false. fn must not change the map.
func (m *Map) Range(fn func(id uint64, v int64) bool) {
	for k, p := range m.pages {
		i := 0
		for mask := p.mask; mask != 0; mask &= mask - 1 {
			if !fn(k<<6|uint64(bits.TrailingZeros64(mask)), p.vals[i]) {
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
	i := bits.OnesCount64(p.mask & (bit - 1))
	p.vals = append(p.vals[:i], p.vals[i+1:]...)
	if len(p.vals) <= cap(p.vals)/4 {
		// Most of the room is for ids that are gone: give it back. Put
		// grows the page again by doubling.
		p.vals = slices.Clone(p.vals)
	}
	return true
}
