package fov

import (
	"math"
	"math/rand"
	"testing"

	"fovr/internal/geo"
)

// sectorDistanceOracle is the distance from the point q to the sector of
// a camera at the origin facing theta, worked out in plane vectors with
// none of the filter's code: the sector is the intersection of two
// half-planes bounded by its edges (2 alpha < 180°) and the disc of
// radius R; a point outside it is nearest one of the two edge segments,
// or the arc when its direction lies between the edges.
func sectorDistanceOracle(c Camera, theta float64, q geo.Vec) float64 {
	unit := func(deg float64) geo.Vec {
		s, c := math.Sincos(deg * math.Pi / 180)
		return geo.Vec{East: s, North: c}
	}
	cross := func(a, b geo.Vec) float64 { return a.East*b.North - a.North*b.East }
	lo, hi := unit(theta-c.HalfAngleDeg), unit(theta+c.HalfAngleDeg)
	// Compass bearings turn clockwise: q lies between the edges when it
	// is clockwise of lo and anticlockwise of hi.
	between := cross(lo, q) <= 0 && cross(q, hi) <= 0
	d := q.Norm()
	if between && d <= c.RadiusMeters {
		return 0
	}
	seg := func(e geo.Vec) float64 {
		t := math.Max(0, math.Min(c.RadiusMeters, q.East*e.East+q.North*e.North))
		return math.Hypot(q.East-t*e.East, q.North-t*e.North)
	}
	best := math.Min(seg(lo), seg(hi))
	if between {
		best = math.Min(best, d-c.RadiusMeters)
	}
	return best
}

// TestCircleCoverageIsExact holds the coverage rule to the oracle on 10^6
// draws: 50 000 at each query radius r in {0, 5, 30, 100, 300} m and
// half-angle alpha in {10, 30, 60, 89}°, R = 100 m, with the query point
// uniform in the disc of radius R + r + 20 m around the camera. Covered
// must be exactly "the sector comes within r of the point", TooFar exactly
// "beyond R + r", and SectorDistance the oracle's distance, each outside a
// 10^-6 m band at the boundary. The rule's asin slack it replaces called
// up to 3.7 % of its Covered answers wrongly at r >= 30.
func TestCircleCoverageIsExact(t *testing.T) {
	const perCell, band = 50_000, 1e-6
	rng := rand.New(rand.NewSource(21))
	for _, r := range []float64{0, 5, 30, 100, 300} {
		for _, alpha := range []float64{10, 30, 60, 89} {
			c := Camera{HalfAngleDeg: alpha, RadiusMeters: 100}
			covered, wrong := 0, 0
			for i := 0; i < perCell; i++ {
				f := FoV{Theta: rng.Float64() * 360}
				rho := (c.RadiusMeters + r + 20) * math.Sqrt(rng.Float64())
				s, co := math.Sincos(rng.Float64() * 2 * math.Pi)
				v := geo.Vec{East: rho * s, North: rho * co}
				d := v.Norm()
				want := sectorDistanceOracle(c, f.Theta, v)
				got := f.CircleCoverage(c, v, d, r)
				if got == Covered {
					covered++
				}
				if math.Abs(want-r) <= band || math.Abs(d-c.RadiusMeters-r) <= band {
					continue
				}
				wantCode := Covered
				switch {
				case d > c.RadiusMeters+r:
					wantCode = TooFar
				case want > r:
					wantCode = FacingAway
				}
				if got != wantCode || math.Abs(f.SectorDistance(c, v, d)-want) > band {
					wrong++
					if wrong <= 3 {
						t.Errorf("r %v alpha %v theta %.4f v %+v: %v, sector %.9f m away; the oracle says %v, %.9f m",
							r, alpha, f.Theta, v, got, f.SectorDistance(c, v, d), wantCode, want)
					}
				}
			}
			if wrong > 0 {
				t.Errorf("r %v alpha %v: %d of %d draws disagree with the oracle", r, alpha, wrong, perCell)
			}
			if covered == 0 || covered == perCell {
				t.Errorf("r %v alpha %v: %d of %d covered; the draws miss the boundary", r, alpha, covered, perCell)
			}
		}
	}
}

// TestCoverageNearTheEdgeTip is the case the asin slack called covered:
// a camera facing north, the query point 125 m away at bearing 43.88° with
// r = 30. The bearing is within alpha + asin(r/d) = 43.89° of the heading,
// but the sector's nearest point, the tip of its 30° edge, is 36.8 m
// from the query point, so the disc and the sector do not meet.
func TestCoverageNearTheEdgeTip(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116.3}
	f := FoV{P: p, Theta: 0}
	q := geo.Offset(p, 43.88, 125)
	v := geo.Displacement(p, q)
	if got := f.CircleCoverage(testCam, v, v.Norm(), 30); got != FacingAway {
		t.Fatalf("coverage %v, want FacingAway", got)
	}
	if f.CoversCircle(testCam, q, 30) {
		t.Fatal("CoversCircle accepts a disc the sector does not meet")
	}
	if got := f.SectorDistance(testCam, v, v.Norm()); math.Abs(got-36.81) > 0.01 {
		t.Fatalf("the sector is %.3f m from the query point, want 36.81", got)
	}
	if !f.CoversCircle(testCam, q, 37) {
		t.Fatal("a 37 m disc reaches the edge's tip")
	}
}
