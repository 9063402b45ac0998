package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
)

// bearingRing is eight devices that see 300 m, three times the
// deployment camera's radius: each stands 130 m from center, one every
// 45°, facing it. 130 m lies beyond the sides of a box sized from the
// deployment's 100 m but inside its corners.
func bearingRing() []index.Entry {
	var ring []index.Entry
	for i := 0; i < 8; i++ {
		bearing := float64(i) * 45
		e := entry(uint64(i+1), geo.Offset(center, bearing, 130), geo.NormalizeDeg(bearing+180), 0, 1000)
		e.Camera = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 300}
		ring = append(ring, e)
	}
	return ring
}

// TestAnswersDoNotDependOnBearing finds all eight devices of the ring,
// at radius 0 and at 20 m, on every index kind: the walk reaches as far
// as the widest camera that may cover the circle, not the deployment's.
func TestAnswersDoNotDependOnBearing(t *testing.T) {
	for name, idx := range equivalenceKinds(t, bearingRing()) {
		for _, r := range []float64{0, 20} {
			got, err := Search(idx, Query{EndMillis: 1000, Center: center, RadiusMeters: r}, Options{Camera: cam})
			if err != nil {
				t.Fatal(err)
			}
			var ids []uint64
			for _, g := range got {
				ids = append(ids, g.Entry.ID)
			}
			slices.Sort(ids)
			if !slices.Equal(ids, []uint64{1, 2, 3, 4, 5, 6, 7, 8}) {
				t.Errorf("%s, r = %v: found %v, want all eight", name, r, ids)
			}
		}
	}
}

// rotateAbout turns e's position and heading about c by deg degrees.
func rotateAbout(e index.Entry, c geo.Point, deg float64) index.Entry {
	v := geo.Displacement(c, e.Rep.FoV.P)
	e.Rep.FoV.P = geo.Offset(c, v.Bearing()+deg, v.Norm())
	e.Rep.FoV.Theta = geo.NormalizeDeg(e.Rep.FoV.Theta + deg)
	return e
}

// TestRotationLeavesAnswersUnchanged is the metamorphic form of the
// bearing test. A seeded corpus of 600 cameras within 400 m of the query
// point, one in three declaring its own optics with a radius of view of
// up to three times the deployment's, is turned about the query point
// by each of five angles; the covering set must not change. Rotation
// moves positions by a spherical offset, and the index holds them at
// the grid (1e-7°, 0.01° headings), so a camera whose sector lies within
// the tolerance of the query disc's edge — 5 cm plus 0.05° of its
// distance, either way — may flip, and is left out of the comparison;
// under 1 % of the corpus is.
func TestRotationLeavesAnswersUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	corpus := make([]index.Entry, 600)
	for i := range corpus {
		e := entry(uint64(i+1), geo.Offset(center, rng.Float64()*360, rng.Float64()*400), rng.Float64()*360, 0, 1000)
		if rng.Intn(3) == 0 {
			e.Camera = fov.Camera{HalfAngleDeg: 10 + rng.Float64()*60, RadiusMeters: 20 + rng.Float64()*280}
		}
		corpus[i] = e
	}
	// undecided reports whether e, as an index holds it, lies within the
	// tolerance of covering the disc of radius r or not: whether the
	// query point is that close to the edge of the sector grown by r.
	undecided := func(e index.Entry, r float64) bool {
		e = e.OnGrid()
		c, f := e.EffectiveCamera(cam), e.Rep.FoV
		v := geo.Displacement(f.P, center)
		d := v.Norm()
		sd := f.SectorDistance(c, v, d)
		edge := sd - r
		if sd == 0 { // inside the sector: depth to its nearest side
			in := (c.HalfAngleDeg - geo.AngleDiff(v.Bearing(), f.Theta)) * math.Pi / 180
			edge = -r - min(c.RadiusMeters-d, d*math.Sin(in))
		}
		return math.Abs(edge) <= 0.05+d*0.05*math.Pi/180
	}
	answer := func(entries []index.Entry, r float64, skip map[uint64]bool) []uint64 {
		got, err := Search(newIndex(t, entries...), Query{EndMillis: 1000, Center: center, RadiusMeters: r}, Options{Camera: cam})
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		for _, g := range got {
			if !skip[g.Entry.ID] {
				ids = append(ids, g.Entry.ID)
			}
		}
		slices.Sort(ids)
		return ids
	}
	for _, r := range []float64{0, 25} {
		for _, deg := range []float64{30, 90, 135, 200, 315} {
			turned := make([]index.Entry, len(corpus))
			skip := map[uint64]bool{}
			for i, e := range corpus {
				turned[i] = rotateAbout(e, center, deg)
				if undecided(e, r) || undecided(turned[i], r) {
					skip[e.ID] = true
				}
			}
			want, got := answer(corpus, r, skip), answer(turned, r, skip)
			wide := 0
			for _, id := range want {
				if e := corpus[id-1]; e.Camera.RadiusMeters > cam.RadiusMeters && geo.Distance(e.Rep.FoV.P, center) > cam.RadiusMeters+r {
					wide++
				}
			}
			if len(skip)*100 >= len(corpus) || wide == 0 {
				t.Fatalf("r %v, %v°: %d cameras undecided, %d covering from beyond the deployment's reach; the corpus tests nothing", r, deg, len(skip), wide)
			}
			if !slices.Equal(got, want) {
				t.Errorf("r %v, turned %v°: %d covering cameras %v, unturned %d %v", r, deg, len(got), got, len(want), want)
			}
		}
	}
}
