package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// unionRef is Union as math.Min and math.Max compute it.
func unionRef(a, r Rect) Rect {
	var u Rect
	for d := 0; d < Dims; d++ {
		u.Min[d] = math.Min(a.Min[d], r.Min[d])
		u.Max[d] = math.Max(a.Max[d], r.Max[d])
	}
	return u
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func sameRectBits(a, b Rect) bool {
	for d := 0; d < Dims; d++ {
		if !sameBits(a.Min[d], b.Min[d]) || !sameBits(a.Max[d], b.Max[d]) {
			return false
		}
	}
	return true
}

// TestEnlargeMatchesUnion holds the insert kernels to their plain
// formulation, bit for bit: Union with builtin min/max against
// math.Min/math.Max, and the one-pass enlarge against
// Union + Area + Margin. Any difference could flip a ChooseSubtree or
// split decision and change the tree's shape. Inputs cover random and
// degenerate boxes, signed zeros and coordinates near 1e12, where
// rounding differs most between orders of operation.
func TestEnlargeMatchesUnion(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1,
		1e12, -1e12, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	// NaN payloads are not compared: any NaN matches any NaN.
	same := func(p, q float64) bool { return sameBits(p, q) || math.IsNaN(p) && math.IsNaN(q) }
	for _, x := range specials {
		for _, y := range specials {
			if math.IsNaN(x) && math.IsInf(y, 0) || math.IsInf(x, 0) && math.IsNaN(y) {
				// The one pair the two disagree on: math.Max(NaN, +Inf)
				// is +Inf (and math.Min(NaN, -Inf) is -Inf), the builtins
				// give NaN. Valid rejects both, so no rectangle in a tree
				// holds either.
				continue
			}
			if !same(min(x, y), math.Min(x, y)) || !same(max(x, y), math.Max(x, y)) {
				t.Fatalf("min/max(%v, %v) = %v/%v, math.Min/Max = %v/%v",
					x, y, min(x, y), max(x, y), math.Min(x, y), math.Max(x, y))
			}
		}
	}

	rng := rand.New(rand.NewSource(27))
	negZero := math.Copysign(0, -1)
	coord := func(kind int) float64 {
		switch kind {
		case 0:
			return rng.Float64() * 100
		case 1:
			return 1e12 + rng.Float64()*1e4 // 1e12 with 1e-4 resolution: rounding bites
		case 2:
			return []float64{negZero, 0}[rng.Intn(2)]
		default:
			return (rng.Float64() - 0.5) * 1e-300
		}
	}
	box := func() Rect {
		var r Rect
		kind := rng.Intn(4)
		for d := 0; d < Dims; d++ {
			lo, hi := coord(kind), coord(kind)
			if lo > hi {
				lo, hi = hi, lo
			}
			if rng.Intn(3) == 0 {
				hi = lo // degenerate in this dimension
			}
			r.Min[d], r.Max[d] = lo, hi
		}
		return r
	}
	for i := 0; i < 200_000; i++ {
		a, r := box(), box()
		u := unionRef(a, r)
		if got := a.Union(r); !sameRectBits(got, u) {
			t.Fatalf("Union(%v, %v) = %v, math.Min/Max give %v", a, r, got, u)
		}
		dArea, dMargin, area := enlarge(&a, &r)
		wantArea, wantMargin := u.Area()-a.Area(), u.Margin()-a.Margin()
		if !sameBits(dArea, wantArea) || !sameBits(dMargin, wantMargin) || !sameBits(area, a.Area()) {
			t.Fatalf("enlarge(%v, %v) = %v, %v, %v; Union/Area/Margin give %v, %v, %v",
				a, r, dArea, dMargin, area, wantArea, wantMargin, a.Area())
		}
	}
}
