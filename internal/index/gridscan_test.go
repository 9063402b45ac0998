package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
)

// TestGridLeafTestIsTheFloatTest holds Visit's leaf test, made in grid
// codes (visitLeaf over the spans gridSpan returns), to the float test it
// replaces: for every slot near an edge of a random question, the slot
// is handed to visit exactly when slotRect(s) intersects queryRect and,
// for an over-long slot, its exact end reaches the window; and it is
// bounded with the bits of Near.MinDist2 over slotRect(s) — offered at a
// bound exactly at its lower bound and one ulp above, not one ulp below.
// The questions include box edges exactly at a code's coordinate and one
// ulp either side, longitudes past the antimeridian, latitudes past the
// poles (RectAround near a pole), boxes wider than the code range,
// windows near 2^53 ms, and over-long slots. An off-by-one in either end
// of a code span fails it.
func TestGridLeafTestIsTheFloatTest(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const questions = 4000
	offers, refusals := 0, 0
	for range questions {
		center, box := gridQuestionBox(rng)
		ts, te := gridQuestionWindow(rng)

		// Slots at every code within two of each box edge, the other
		// coordinate at or next to the box's, or inside it, and
		// intervals around the window's edges.
		var slots []slot
		rows := []source{{Provider: "p"}}
		lngs := nearCodes(box.MinLng, box.MaxLng)
		lats := nearCodes(box.MinLat, box.MaxLat)
		for _, lng := range lngs {
			for _, lat := range lats {
				s := slot{ID: uint64(len(slots) + 1), lng: lng, lat: lat}
				s.Start, s.dur = nearInterval(rng, ts, te)
				if s.dur == overLong {
					// The exact end, at least overLong past the start:
					// near the window's start for one that starts
					// overLong before it.
					s.src = uint32(len(rows))
					rows = append(rows, source{Provider: "p", end: s.Start + overLong + rng.Int63n(7)})
				}
				slots = append(slots, s)
			}
		}

		var offered []uint64
		w := newWalker(rows)
		q := w.ask(box, ts, te, center, math.Inf(1), func(e *Entry) float64 {
			offered = append(offered, e.ID)
			return math.Inf(1)
		})
		var want []uint64
		for i := range slots {
			s := &slots[i]
			r := slotRect(s)
			in := r.Intersects(q) && !(s.dur == overLong && s.end(rows) < ts)
			offered = offered[:0]
			w.visitLeaf(slots[i:i+1], math.Inf(1))
			if got := len(offered) == 1; got != in {
				t.Fatalf("slot codes (%d, %d) [%d, +%d] in box %+v, window [%d, %d]: grid test %v, float test %v",
					s.lng, s.lat, s.Start, s.dur, box, ts, te, got, in)
			}
			if !in {
				refusals++
				continue
			}
			offers++
			want = append(want, s.ID)
			d2 := w.near.MinDist2(&r)
			b := math.Sqrt(d2)
			for b*b < d2 {
				b = math.Nextafter(b, math.Inf(1))
			}
			for b > 0 && math.Nextafter(b, 0)*math.Nextafter(b, 0) >= d2 {
				b = math.Nextafter(b, 0)
			}
			// b is the least bound whose square reaches d2.
			for _, c := range []struct {
				bound float64
				offer bool
			}{{b, true}, {math.Nextafter(b, math.Inf(1)), true}, {math.Nextafter(b, 0), b == 0}, {-1, false}} {
				offered = offered[:0]
				answer := w.visitLeaf(slots[i:i+1], c.bound)
				if got := len(offered) == 1; got != c.offer || got != (answer != c.bound) {
					t.Fatalf("slot codes (%d, %d), lower bound %v: at bound %v offered %v (leaf answered %v), want %v",
						s.lng, s.lat, d2, c.bound, got, answer, c.offer)
				}
			}
		}
		// The whole run as one leaf: the same slots, in slot order.
		offered = offered[:0]
		w.visitLeaf(slots, math.Inf(1))
		if !slices.Equal(offered, want) {
			t.Fatalf("one leaf of %d slots offered %v, want %v", len(slots), offered, want)
		}
		w.release()
	}
	t.Logf("%d slots offered, %d refused", offers, refusals)
	if offers < questions || refusals < questions {
		t.Fatalf("%d offered and %d refused: the slots do not straddle the edges", offers, refusals)
	}
}

// gridQuestionBox returns a question's centre and box: in a city, at the
// antimeridian, at a pole (its box past ±90° and, wide enough, past the
// code range in longitude) or narrower than one code; each edge is left
// as RectAround made it or moved to a code's coordinate, exactly or one
// ulp either side.
func gridQuestionBox(rng *rand.Rand) (geo.Point, geo.Rect) {
	var c geo.Point
	radius := math.Pow(10, 4*rng.Float64())
	switch rng.Intn(4) {
	case 0:
		c = geo.Point{Lat: 120*rng.Float64() - 60, Lng: 360*rng.Float64() - 180}
	case 1:
		c = geo.Point{Lat: 120*rng.Float64() - 60, Lng: math.Copysign(180-0.01*rng.Float64(), rng.Float64()-0.5)}
	case 2:
		c = geo.Point{Lat: math.Copysign(90-0.001*rng.Float64(), rng.Float64()-0.5), Lng: 360*rng.Float64() - 180}
		radius *= 10
	default:
		c = geo.Point{Lat: 120*rng.Float64() - 60, Lng: 360*rng.Float64() - 180}
		radius = 0.02 * rng.Float64()
	}
	box := geo.RectAround(c, radius)
	for _, e := range []*float64{&box.MinLng, &box.MaxLng, &box.MinLat, &box.MaxLat} {
		if math.Abs(*e) > 200 || rng.Intn(4) == 0 {
			continue
		}
		*e = fov.CoordFromGrid(fov.CoordToGrid(*e))
		switch rng.Intn(3) {
		case 1:
			*e = math.Nextafter(*e, math.Inf(1))
		case 2:
			*e = math.Nextafter(*e, math.Inf(-1))
		}
	}
	return c, box
}

// gridQuestionWindow returns a question's window: a day's worth of
// milliseconds, a few milliseconds at 2^53 (where float64 no longer
// tells neighbours apart), or one instant.
func gridQuestionWindow(rng *rand.Rand) (int64, int64) {
	switch rng.Intn(3) {
	case 0:
		ts := rng.Int63n(1e8)
		return ts, ts + rng.Int63n(1e7)
	case 1:
		ts := 1<<53 + rng.Int63n(64) - 32
		return ts, ts + rng.Int63n(8)
	default:
		ts := rng.Int63n(1e8) - 5e7
		return ts, ts
	}
}

// nearInterval returns a slot's start and dur: starting at or near the
// window's end, ending at or near its start, over-long and ending near
// its start or starting near its end, or starting near its start.
func nearInterval(rng *rand.Rand, ts, te int64) (int64, uint32) {
	d := rng.Int63n(7) - 3
	switch rng.Intn(5) {
	case 0:
		return te + d, uint32(rng.Intn(3))
	case 1:
		dur := uint32(rng.Int63n(1e6))
		return ts + d - int64(dur), dur
	case 2:
		return ts + d - overLong, overLong
	case 3:
		return te + d, overLong
	default:
		return ts + d, uint32(rng.Int63n(1e6))
	}
}

// nearCodes returns the grid codes within two of each edge of [lo, hi]
// (clamped to the int32 range) and the code of its middle.
func nearCodes(lo, hi float64) []int32 {
	code := func(v float64) int64 { return int64(math.Round(max(min(v*1e7, 1<<31), -1<<31))) }
	var out []int32
	for _, c := range []int64{code(lo), code(hi)} {
		for d := int64(-2); d <= 2; d++ {
			if c+d >= math.MinInt32 && c+d <= math.MaxInt32 {
				out = append(out, int32(c+d))
			}
		}
	}
	if c := code(lo/2 + hi/2); c >= math.MinInt32 && c <= math.MaxInt32 {
		out = append(out, int32(c))
	}
	return out
}
