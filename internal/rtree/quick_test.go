package rtree

import (
	"math"
	"testing"
	"testing/quick"
)

// boxSpec is a quick-generatable rectangle specification.
type boxSpec struct {
	X, Y, T    float64
	DX, DY, DT float64
}

func (b boxSpec) rect() (Rect, bool) {
	vals := []float64{b.X, b.Y, b.T, b.DX, b.DY, b.DT}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Rect{}, false
		}
	}
	norm := func(v, span float64) float64 { return math.Mod(math.Abs(v), span) }
	r := Rect{
		Min: [Dims]float64{norm(b.X, 100), norm(b.Y, 100), norm(b.T, 1000)},
	}
	r.Max = [Dims]float64{
		r.Min[0] + norm(b.DX, 10),
		r.Min[1] + norm(b.DY, 10),
		r.Min[2] + norm(b.DT, 50),
	}
	return r, true
}

// TestQuickInsertedIsFindable: any inserted rectangle is returned by a
// search with its own extent, and the tree invariants hold afterwards.
func TestQuickInsertedIsFindable(t *testing.T) {
	tree := newTree(Options{MaxEntries: 6})
	id := 0
	f := func(spec boxSpec) bool {
		r, ok := spec.rect()
		if !ok {
			return true
		}
		id++
		if err := tree.Insert(item{r, id}); err != nil {
			return false
		}
		found := false
		want := id
		tree.Search(r, func(v item) bool {
			if v.id == want {
				found = true
				return false
			}
			return true
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRectAlgebra: union commutes, contains its operands, and
// intersection tests are consistent with containment.
func TestQuickRectAlgebra(t *testing.T) {
	f := func(s1, s2 boxSpec) bool {
		a, ok1 := s1.rect()
		b, ok2 := s2.rect()
		if !ok1 || !ok2 {
			return true
		}
		u := a.Union(b)
		if u != b.Union(a) {
			return false
		}
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		if u.Area() < a.Area() || u.Area() < b.Area() {
			return false
		}
		// Containment implies intersection.
		if a.Contains(b) && !a.Intersects(b) {
			return false
		}
		// Intersection is symmetric.
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinDistLowerBound: MinDist2 from any point to a rect never
// exceeds the squared distance to any point sampled inside the rect
// (here: its center and corners).
func TestQuickMinDistLowerBound(t *testing.T) {
	f := func(s boxSpec, px, py, pt float64) bool {
		r, ok := s.rect()
		if !ok || math.IsNaN(px+py+pt) || math.IsInf(px+py+pt, 0) {
			return true
		}
		p := [Dims]float64{math.Mod(px, 200), math.Mod(py, 200), math.Mod(pt, 2000)}
		near := Near{P: p, W: [Dims]float64{1, 1, 1}}
		min := near.MinDist2(&r)
		check := func(q [Dims]float64) bool {
			d := 0.0
			for i := 0; i < Dims; i++ {
				d += (p[i] - q[i]) * (p[i] - q[i])
			}
			return min <= d+1e-9
		}
		if !check(r.Center()) || !check(r.Min) || !check(r.Max) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
