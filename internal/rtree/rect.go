// Package rtree is a from-scratch, stdlib-only implementation of Guttman's
// R-tree ("R-trees: a dynamic index structure for spatial searching",
// SIGMOD 1984), the height-balanced spatial index the paper's cloud server
// maintains over representative FoVs (Section V-A).
//
// The tree indexes three-dimensional rectangles — the paper stores each
// representative FoV as the degenerate box
//
//	min[] = [lng, lat, t_s],  max[] = [lng, lat, t_e]
//
// i.e. a vertical segment in (longitude, latitude, time) space — and
// answers range queries with boxes built from the querier's circle and
// time interval. Degenerate (zero-volume) rectangles are therefore the
// dominant workload here, and the node split is exercised and tested
// against them specifically.
//
// Nodes are laid out struct-of-arrays. An internal node keeps its
// children's MBRs contiguous beside the child pointers, so the filter
// over MBRs reads nothing else; a leaf keeps only its items. A leaf
// item's rectangle is derived from the item by the bounds function the
// tree is built with — for a representative, the degenerate box above,
// from numbers the item already holds — so it is never stored.
//
// Features: insert with the R* split (its axis choice weighs time
// against position in commensurable units, see kappa in rstar.go),
// delete with tree condensation and reinsertion, range search —
// optionally steered nearest-first around a point under a shrinking distance bound,
// which is how package index answers top-N and k-nearest questions — and
// sort-tile-recursive (STR) bulk loading. Writers copy on write and
// publish immutable snapshots that readers walk without locks. The tree
// is not safe for concurrent mutation; package index serializes its
// writers.
package rtree

import (
	"fmt"
	"math"
)

// Dims is the dimensionality of the index: longitude, latitude, time.
const Dims = 3

// Rect is an axis-aligned box in index space. A point or a degenerate
// segment is represented with Min == Max in the flat dimensions.
type Rect struct {
	Min, Max [Dims]float64
}

// Point builds a degenerate rectangle from a single point.
func Point(p [Dims]float64) Rect { return Rect{Min: p, Max: p} }

// Valid reports whether the rectangle is well-formed: finite and
// Min <= Max in every dimension.
func (r Rect) Valid() bool {
	for d := 0; d < Dims; d++ {
		if math.IsNaN(r.Min[d]) || math.IsNaN(r.Max[d]) ||
			math.IsInf(r.Min[d], 0) || math.IsInf(r.Max[d], 0) ||
			r.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

func (r Rect) String() string {
	return fmt.Sprintf("[%v..%v]", r.Min, r.Max)
}

// Intersects reports whether two boxes overlap (boundary contact counts,
// matching the paper's "have intersection with" retrieval semantics).
func (r Rect) Intersects(o Rect) bool { return r.intersects(&o) }

// intersects is Intersects on pointers, for traversals that test node
// slots in place.
func (r *Rect) intersects(o *Rect) bool {
	for d := 0; d < Dims; d++ {
		if r.Min[d] > o.Max[d] || o.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Contains reports whether o lies entirely inside r (inclusive).
func (r Rect) Contains(o Rect) bool {
	for d := 0; d < Dims; d++ {
		if o.Min[d] < r.Min[d] || o.Max[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point lies inside r (inclusive).
func (r Rect) ContainsPoint(p [Dims]float64) bool {
	for d := 0; d < Dims; d++ {
		if p[d] < r.Min[d] || p[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Union returns the minimum bounding rectangle of r and o. The builtin
// min and max give math.Min's and math.Max's bits on every input a valid
// rectangle can hold (min(-0, +0) is -0) and compile to inline
// instructions.
func (r Rect) Union(o Rect) Rect {
	var u Rect
	for d := 0; d < Dims; d++ {
		u.Min[d] = min(r.Min[d], o.Min[d])
		u.Max[d] = max(r.Max[d], o.Max[d])
	}
	return u
}

// Area returns the d-dimensional volume of r. Degenerate boxes have zero
// area; ChooseSubtree falls back to margins in that case.
func (r Rect) Area() float64 {
	a := 1.0
	for d := 0; d < Dims; d++ {
		a *= r.Max[d] - r.Min[d]
	}
	return a
}

// Margin returns the sum of edge lengths of r (the L1 perimeter measure
// used as a tie-breaker for zero-volume boxes).
func (r Rect) Margin() float64 {
	m := 0.0
	for d := 0; d < Dims; d++ {
		m += r.Max[d] - r.Min[d]
	}
	return m
}

// enlarge returns how much a's area must grow to absorb r, the margin
// growth as a secondary measure for the degenerate case, and a's own
// area: the three keys that order candidate subtrees (ChooseSubtree).
// It is one pass over the dimensions, with the same operations in the
// same order as a.Union(r).Area() - a.Area(), the margin equivalent and
// a.Area(), so the values are bit-identical to that formulation. It is
// written to fit the compiler's inlining budget: dMargin holds the
// union's margin until the return.
func enlarge(a, r *Rect) (dArea, dMargin, area float64) {
	uArea, margin := 1.0, 0.0
	area = 1.0
	for d := range Dims {
		lo, hi := a.Min[d], a.Max[d]
		w := hi - lo
		uw := max(hi, r.Max[d]) - min(lo, r.Min[d])
		area *= w
		uArea *= uw
		margin += w
		dMargin += uw
	}
	return uArea - area, dMargin - margin, area
}

// Center returns the rectangle's center point.
func (r Rect) Center() [Dims]float64 {
	var c [Dims]float64
	for d := 0; d < Dims; d++ {
		c[d] = (r.Min[d] + r.Max[d]) / 2
	}
	return c
}
