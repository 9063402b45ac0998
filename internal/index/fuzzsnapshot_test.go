package index

import (
	"testing"

	"fovr/internal/geo"
	"fovr/internal/segment"
)

// fuzzCoord and fuzzI16 decode the fuzz program's coarse grids:
// coordinates within ±0.26° of the test city and signed 16-bit times.
// Coarse grids make the fuzzer hit coincidences (equal positions,
// boundary instants, zero-length segments) with realistic probability
// instead of never.
func fuzzCoord(b byte) float64 { return float64(int8(b)) / 500.0 }

func fuzzI16(hi, lo byte) int64 { return int64(int16(uint16(hi)<<8 | uint16(lo))) }

// FuzzSnapshotReads drives the tree and a linear oracle through the same
// fuzzer-chosen interleaving of inserts, removals, and queries, and
// demands that every query answers exactly what the oracle answers at
// that point. Queries draw from a pool of four fixed boxes and a coarse
// time grid, so the same question is asked again across mutations; an
// answer served from a snapshot that predates a mutation diverges from
// the oracle immediately.
//
// The program is a sequence of 6-byte records:
//
//	op lat lng aHi aLo b
//
// op%4: 0,1 insert (lat/lng on the fuzzCoord grid, start = a*100 ms,
// duration = b*10 ms), 2 remove id a%(maxID+1), 3 query (box pool index
// lat%4, window start a*100 ms, width b*20 ms).
func FuzzSnapshotReads(f *testing.F) {
	// Seeds: insert-query-insert-query on one box; a remove between
	// repeated queries; an over-long segment queried repeatedly; queries
	// alone on an empty store.
	f.Add([]byte{
		0, 10, 10, 0, 1, 10,
		3, 0, 0, 0, 0, 100,
		3, 0, 0, 0, 0, 100,
		1, 12, 12, 0, 2, 10,
		3, 0, 0, 0, 0, 100,
		3, 0, 0, 0, 0, 100,
	})
	f.Add([]byte{
		0, 10, 10, 0, 1, 10,
		3, 0, 0, 0, 0, 100,
		3, 0, 0, 0, 0, 100,
		2, 0, 0, 0, 1, 0,
		3, 0, 0, 0, 0, 100,
	})
	f.Add([]byte{
		0, 5, 5, 0, 0, 255, // 2550 ms long
		3, 1, 0, 0, 0, 200,
		3, 1, 0, 0, 0, 200,
		3, 1, 0, 0, 0, 200,
	})
	f.Add([]byte{
		3, 0, 0, 0, 0, 50,
		3, 1, 0, 0, 0, 50,
		3, 2, 0, 0, 0, 50,
		3, 3, 0, 0, 0, 50,
	})
	queryPool := []geo.Rect{
		geo.RectAround(geo.Point{Lat: 40.0, Lng: 116.3}, 400),
		geo.RectAround(geo.Point{Lat: 40.0, Lng: 116.3}, 1500),
		geo.RectAround(geo.Point{Lat: 40.05, Lng: 116.35}, 800),
		{MinLat: 39.9, MaxLat: 40.2, MinLng: 116.2, MaxLng: 116.5},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x := NewRTree()
		lin := NewLinear()
		nextID := uint64(1)
		made := map[uint64]Entry{} // every entry offered, by id
		queried := false
		for len(data) >= 6 {
			op, lat, lng := data[0], data[1], data[2]
			a := fuzzI16(data[3], data[4])
			b := int64(data[5])
			data = data[6:]
			switch op % 4 {
			case 0, 1: // insert
				e := Entry{
					ID:       nextID,
					Provider: "fuzz",
					Rep:      fuzzRep(lat, lng, op, a*100, b*10),
				}
				nextID++
				made[e.ID] = e
				errX, errL := x.Insert(e), lin.Insert(e)
				if (errX == nil) != (errL == nil) {
					t.Fatalf("insert %d: tree err %v, linear err %v", e.ID, errX, errL)
				}
			case 2: // remove
				id := uint64(a)%nextID + 1
				e := made[id]
				e.ID = id
				if okX, okL := x.RemoveBatch([]Entry{e}) == 1, lin.Remove(id); okX != okL {
					t.Fatalf("remove %d: tree %v, linear %v", id, okX, okL)
				}
			case 3: // query
				queried = true
				q := queryPool[int(lat)%len(queryPool)]
				ts := a * 100
				te := ts + b*20
				got := ids(x.Search(q, ts, te))
				want := ids(lin.Search(q, ts, te))
				if len(got) != len(want) {
					t.Fatalf("query %+v [%d,%d]: tree %d hits %v, linear %d hits %v",
						q, ts, te, len(got), got, len(want), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %+v [%d,%d]: hit %d: tree id %d, linear id %d",
							q, ts, te, i, got[i], want[i])
					}
				}
			}
		}
		if !queried {
			t.Skip()
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzRep builds a representative on the fuzz coordinate grid.
func fuzzRep(lat, lng, heading byte, start, dur int64) segment.Representative {
	return segment.Representative{
		FoV: fovAt(geo.Point{
			Lat: 40.0 + fuzzCoord(lat),
			Lng: 116.3 + fuzzCoord(lng),
		}, float64(heading)),
		StartMillis: start,
		EndMillis:   start + dur,
	}
}
