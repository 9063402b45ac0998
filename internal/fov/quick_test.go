package fov

import (
	"math"
	"testing"
	"testing/quick"

	"fovr/internal/geo"
)

// pose constrains quick-generated values to meaningful FoV pairs.
type pose struct {
	Theta1, Theta2 float64
	Dir, Dist      float64
}

func (p pose) pair() (FoV, FoV) {
	base := geo.Point{Lat: 40, Lng: 116.3}
	f1 := FoV{P: base, Theta: geo.NormalizeDeg(p.Theta1)}
	f2 := FoV{
		P:     geo.Offset(base, geo.NormalizeDeg(p.Dir), math.Mod(math.Abs(p.Dist), 500)),
		Theta: geo.NormalizeDeg(p.Theta2),
	}
	return f1, f2
}

func (p pose) finite() bool {
	for _, v := range []float64{p.Theta1, p.Theta2, p.Dir, p.Dist} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func TestQuickSimBounded(t *testing.T) {
	f := func(p pose) bool {
		if !p.finite() {
			return true
		}
		f1, f2 := p.pair()
		s := Sim(testCam, f1, f2)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSimComponentsBounded(t *testing.T) {
	f := func(dist, dir, rot float64) bool {
		if math.IsNaN(dist) || math.IsNaN(dir) || math.IsNaN(rot) ||
			math.IsInf(dist, 0) || math.IsInf(dir, 0) || math.IsInf(rot, 0) {
			return true
		}
		d := math.Mod(math.Abs(dist), 1e6)
		for _, v := range []float64{
			SimR(testCam, rot),
			SimParallel(testCam, d),
			SimPerp(testCam, d),
			SimTDir(testCam, d, dir),
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		// Eq. 8 as a universal property.
		return SimParallel(testCam, d) >= SimPerp(testCam, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoversImpliesCoversCircle(t *testing.T) {
	// Strict point coverage must imply relaxed circle coverage for any
	// radius.
	f := func(p pose, radius float64) bool {
		if !p.finite() || math.IsNaN(radius) || math.IsInf(radius, 0) {
			return true
		}
		f1, f2 := p.pair()
		r := math.Mod(math.Abs(radius), 100)
		if f1.CoversCircle(testCam, f2.P, 0) && !f1.CoversCircle(testCam, f2.P, r) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeltaOfConsistent(t *testing.T) {
	// DeltaOf's distance must match geo.Distance and its rotation must
	// match geo.AngleDiff, for all generated pairs.
	f := func(p pose) bool {
		if !p.finite() {
			return true
		}
		f1, f2 := p.pair()
		d := DeltaOf(f1, f2)
		return math.Abs(d.DistMeters-geo.Distance(f1.P, f2.P)) < 1e-9 &&
			math.Abs(d.RotationDeg-geo.AngleDiff(f1.Theta, f2.Theta)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
