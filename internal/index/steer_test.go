package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/rtree"
)

// steerSpec is a quick-generatable question: where it is asked, how far
// the box reaches, a rectangle inside the box, a position inside that
// rectangle, and how far outside the box the center may stand.
type steerSpec struct {
	Lat, Lng, Reach    uint32
	A, B, C, D, U, V   uint32
	OffLat, OffLng     uint32
	South              bool
	Polar, Wide, Aside bool
}

// unit maps a generated integer to [0, 1].
func unit(v uint32) float64 { return float64(v) / math.MaxUint32 }

// TestQuickLowerBoundNeverExceedsDistance: for any query box and center,
// the steering's lower bound for any rectangle is at most geo.Distance
// from the center to any position inside the rectangle and the box —
// mid-latitude cosine, near-polar bands, boxes wider than 180° of
// longitude, the antimeridian and a center outside its box included.
// The walk prunes on exactly this, so an overestimate would lose
// results.
func TestQuickLowerBoundNeverExceedsDistance(t *testing.T) {
	f := func(s steerSpec) bool {
		lat := (unit(s.Lat)*2 - 1) * 80
		if s.Polar {
			lat = 80 + unit(s.Lat)*9.9999
			if s.South {
				lat = -lat
			}
		}
		q := geo.Point{Lat: lat, Lng: (unit(s.Lng)*2 - 1) * 180}
		box := geo.RectAround(q, 10+unit(s.Reach)*5_000)
		if s.Wide {
			// A low band reaching up to 300° either way: longitude
			// differences beyond 180° wrap while the cosine stays large.
			reach := unit(s.Reach) * 300
			box.MinLng, box.MaxLng = q.Lng-reach, q.Lng+reach
		}
		center := q
		if s.Aside {
			center = geo.Point{
				Lat: math.Max(-90, math.Min(90, q.Lat+(unit(s.OffLat)*2-1)*30)),
				Lng: math.Max(-180, math.Min(180, q.Lng+(unit(s.OffLng)*2-1)*200)),
			}
		}
		// A rectangle inside the box, clipped to where positions exist.
		lo := func(min, max float64, a, b uint32) (float64, float64) {
			x, y := min+(max-min)*unit(a), min+(max-min)*unit(b)
			return math.Min(x, y), math.Max(x, y)
		}
		minLat, maxLat := lo(math.Max(box.MinLat, -90), math.Min(box.MaxLat, 90), s.A, s.B)
		minLng, maxLng := lo(math.Max(box.MinLng, -180), math.Min(box.MaxLng, 180), s.C, s.D)
		rect := rtree.Rect{
			Min: [rtree.Dims]float64{minLng, minLat, 0},
			Max: [rtree.Dims]float64{maxLng, maxLat, 1},
		}
		p := geo.Point{Lat: minLat + (maxLat-minLat)*unit(s.U), Lng: minLng + (maxLng-minLng)*unit(s.V)}
		near := nearFor(box, center)
		if lb, d := math.Sqrt(near.MinDist2(&rect)), geo.Distance(p, center); lb > d {
			t.Logf("box %+v center %v rect %v position %v: lower bound %v > distance %v", box, center, rect, p, lb, d)
			return false
		}
		// The degenerate rectangle of the position itself: the leaf-slot
		// bound, which is the tight one.
		at := rtree.Point([rtree.Dims]float64{p.Lng, p.Lat, 0})
		if lb, d := math.Sqrt(near.MinDist2(&at)), geo.Distance(p, center); lb > d {
			t.Logf("box %+v center %v position %v: leaf lower bound %v > distance %v", box, center, p, lb, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20_000, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

// The bound must also be worth having: at city scale it is within a few
// parts in a thousand of the distance itself.
func TestLowerBoundIsTightAtCityScale(t *testing.T) {
	box := geo.RectAround(city, 400)
	near := nearFor(box, city)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		p := geo.Offset(city, rng.Float64()*360, 50+rng.Float64()*350)
		at := rtree.Point([rtree.Dims]float64{p.Lng, p.Lat, 0})
		lb, d := math.Sqrt(near.MinDist2(&at)), geo.Distance(p, city)
		if lb > d || lb < d*0.999 {
			t.Fatalf("position %v: lower bound %v vs distance %v", p, lb, d)
		}
	}
}

// TestReachBoxesHoldTheDisc: every position within reach of the center
// by geo.Distance lies in exactly one of the boxes reachBoxes returns —
// at city scale and at 50 km, near the poles and across the
// antimeridian. geo.RectAround alone sizes longitude at the center's
// latitude, where geo.Distance uses the mid-latitude: at 40 km it left
// positions up to a few centimetres inside the reach outside the box.
func TestReachBoxesHoldTheDisc(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200_000; i++ {
		center := geo.Point{Lat: (rng.Float64()*2 - 1) * 89.9, Lng: (rng.Float64()*2 - 1) * 180}
		if i%4 == 0 {
			center.Lng = math.Copysign(180-rng.Float64()*0.5, center.Lng)
		}
		reach := 10 + rng.Float64()*500
		if i%2 == 0 {
			reach = 10 + rng.Float64()*50_000
		}
		// A position near the edge of the reach, on the grid the index
		// holds positions at.
		p := geo.Offset(center, rng.Float64()*360, reach*(0.999+0.002*rng.Float64()))
		p = geo.Point{Lat: math.Round(p.Lat*1e7) / 1e7, Lng: math.Round(p.Lng*1e7) / 1e7}
		if !p.Valid() || geo.Distance(center, p) > reach {
			continue
		}
		boxes, n := reachBoxes(center, reach)
		in := 0
		for _, b := range boxes[:n] {
			if b.Contains(p) {
				in++
			}
		}
		if in != 1 {
			t.Fatalf("center %v, reach %.3f m: %v at %.6f m lies in %d of %v", center, reach, p, geo.Distance(center, p), in, boxes[:n])
		}
	}
}

// TestWideKeyMeetsTheReach: a slot keyed by its position grown by an
// excess w (slotRect) meets the boxes of a walk's reach a wherever its
// position stands within a + w of the center by geo.Distance, and the
// steering's lower bound for the key in a box it meets is within a, so
// the walk enters the key's leaf before its bound can tighten. The
// draws take centers near the poles and the antimeridian, reaches from
// 10 m to 50 km and excesses from 1 m up to and past saturation
// (globe), positions near the edge of a + w on the grid.
func TestWideKeyMeetsTheReach(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	met, whole := 0, 0
	for i := 0; i < 200_000; i++ {
		center := geo.Point{Lat: (rng.Float64()*2 - 1) * 89.9, Lng: (rng.Float64()*2 - 1) * 180}
		switch i % 4 {
		case 0:
			center.Lng = math.Copysign(180-rng.Float64()*0.5, center.Lng)
		case 1:
			center.Lat = math.Copysign(90-rng.Float64()*0.5, center.Lat)
		}
		reach := 10 + rng.Float64()*500
		if i%3 == 0 {
			reach = 10 + rng.Float64()*50_000
		}
		wide := uint16(1 + rng.Intn(globe))
		switch i % 7 {
		case 0:
			wide = uint16(1 + rng.Intn(500))
		case 1:
			wide = globe
		}
		p := geo.Offset(center, rng.Float64()*360, (reach+float64(wide))*(0.9999+0.0002*rng.Float64()))
		if !p.Valid() || geo.Distance(center, p) > reach+float64(wide) {
			continue
		}
		s := slot{lat: fov.CoordToGrid(p.Lat), lng: fov.CoordToGrid(p.Lng), wide: wide}
		if geo.Distance(center, s.point()) > reach+float64(wide) {
			continue
		}
		key := slotRect(&s)
		boxes, n := reachBoxes(center, reach)
		ok := false
		for _, b := range boxes[:n] {
			near := nearFor(b, center)
			if q := queryRect(b, 0, 0); q.Intersects(key) && near.MinDist2(&key) <= reach*reach {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("center %v, reach %.3f m: a slot at %v (%.3f m) of excess %d m keyed %v meets none of %v within the reach",
				center, reach, s.point(), geo.Distance(center, s.point()), wide, key, boxes[:n])
		}
		met++
		if key.Max[0]-key.Min[0] == 360 {
			whole++
		}
	}
	t.Logf("%d keys met the reach, %d of them over all longitudes", met, whole)
	if met < 80_000 || whole < 1000 {
		t.Fatalf("%d keys met, %d over all longitudes: the draws miss the poles, the antimeridian or saturation", met, whole)
	}
}
