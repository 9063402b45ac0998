package index

import (
	"testing"

	"fovr/internal/geo"
	"fovr/internal/segment"
)

// FuzzSnapshotReads drives a cached sharded index and a linear oracle
// through the same fuzzer-chosen interleaving of inserts, removals, and
// queries, and demands that every query — hit or miss — answers exactly
// what the oracle answers at that point. Because queries draw from a
// pool of four fixed boxes and a coarse time grid, the fuzzer repeats
// identical queries often, so cached results regularly survive across
// mutations; any hit served from an epoch predating a mutation of its
// cells diverges from the oracle immediately.
//
// The program is a sequence of 6-byte records:
//
//	op lat lng aHi aLo b
//
// op%4: 0,1 insert (lat/lng on the fuzzCoord grid, start = a*100 ms,
// duration = b*10 ms), 2 remove id a%(maxID+1), 3 query (box pool index
// lat%4, window start a*100 ms, width b*20 ms).
func FuzzSnapshotReads(f *testing.F) {
	// Seeds: insert-query-insert-query on one box (the second query of a
	// box is admitted, the third is a hit); a remove between repeated
	// queries (invalidation); an over-long segment (spatial fallback)
	// queried repeatedly; queries alone on an empty store.
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
		0, 5, 5, 0, 0, 255, // 2550 ms long: beyond the 500 ms window, spatial shard
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
		sh, err := NewSharded(ShardedOptions{WindowMillis: fuzzWindowMillis, SpatialShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := NewReadCache(sh, ReadCacheOptions{MinCellHits: 2, Capacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		lin := NewLinear()
		nextID := uint64(1)
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
				errC, errL := rc.Insert(e), lin.Insert(e)
				if (errC == nil) != (errL == nil) {
					t.Fatalf("insert %d: cached err %v, linear err %v", e.ID, errC, errL)
				}
			case 2: // remove
				id := uint64(a)%nextID + 1
				if okC, okL := rc.Remove(id), lin.Remove(id); okC != okL {
					t.Fatalf("remove %d: cached %v, linear %v", id, okC, okL)
				}
			case 3: // query
				queried = true
				q := queryPool[int(lat)%len(queryPool)]
				ts := a * 100
				te := ts + b*20
				got := ids(rc.Search(q, ts, te))
				want := ids(lin.Search(q, ts, te))
				if len(got) != len(want) {
					t.Fatalf("query %+v [%d,%d]: cached %d hits %v, linear %d hits %v (hits=%d misses=%d inval=%d)",
						q, ts, te, len(got), got, len(want), want, rc.Hits(), rc.Misses(), rc.Invalidations())
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %+v [%d,%d]: hit %d: cached id %d, linear id %d",
							q, ts, te, i, got[i], want[i])
					}
				}
			}
		}
		if !queried {
			t.Skip()
		}
		if err := rc.CheckInvariants(); err != nil {
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
