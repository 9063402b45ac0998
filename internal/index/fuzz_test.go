package index

import (
	"testing"

	"fovr/internal/geo"
	"fovr/internal/segment"
)

// FuzzShardedSearch cross-checks the sharded index against the linear
// oracle on fuzzer-chosen entry sets and queries. The byte stream is a
// tiny program: an 8-byte query header followed by 7-byte entry records.
// Coordinates and times are quantized onto coarse grids so the fuzzer
// hits the interesting coincidences (entries exactly on a shard-window
// boundary, on the query-rectangle edge, zero-duration segments, and
// durations straddling the 500 ms shard window into the spatial
// fallback) with realistic probability instead of never.
//
// Record layouts (all offsets relative to the fuzz shard geometry:
// window = 500 ms, 4 spatial fallback shards):
//
//	header: qLat qLatSpan qLng qLngSpan tsHi tsLo durHi durLo
//	entry:  lat lng flags startHi startLo durHi durLo
//
// flags bit 0 marks the entry for removal after the build phase, so the
// comparison also covers the delete path.
const fuzzWindowMillis = 500

func fuzzCoord(b byte) float64 { return float64(int8(b)) / 500.0 }

func fuzzI16(hi, lo byte) int64 { return int64(int16(uint16(hi)<<8 | uint16(lo))) }

func fuzzU16(hi, lo byte) int64 { return int64(uint16(hi)<<8 | uint16(lo)) }

func fuzzEntries(data []byte) (q geo.Rect, ts, te int64, entries []Entry, remove []bool) {
	lat := 40.0 + fuzzCoord(data[0])
	latSpan := float64(data[1]) / 2000.0
	lng := 116.3 + fuzzCoord(data[2])
	lngSpan := float64(data[3]) / 2000.0
	q = geo.Rect{MinLat: lat, MaxLat: lat + latSpan, MinLng: lng, MaxLng: lng + lngSpan}
	ts = fuzzI16(data[4], data[5]) * 100
	te = ts + fuzzU16(data[6], data[7])*10
	data = data[8:]
	for i := 0; len(data) >= 7 && i < 512; i++ {
		start := fuzzI16(data[3], data[4]) * 100
		entries = append(entries, Entry{
			ID:       uint64(i + 1),
			Provider: "fuzz",
			Rep: segment.Representative{
				FoV: fovAt(geo.Point{
					Lat: 40.0 + fuzzCoord(data[0]),
					Lng: 116.3 + fuzzCoord(data[1]),
				}, float64(data[2])),
				StartMillis: start,
				EndMillis:   start + fuzzU16(data[5], data[6])*10,
			},
		})
		remove = append(remove, data[2]&1 == 1)
		data = data[7:]
	}
	return q, ts, te, entries, remove
}

func FuzzShardedSearch(f *testing.F) {
	// Seeds: an empty store; one in-window entry the query hits; a
	// window-boundary straddle plus removal; an over-long segment that
	// must take the spatial fallback; a pre-epoch capture.
	f.Add([]byte{0, 100, 0, 100, 0, 0, 0, 200})
	f.Add([]byte{
		0, 100, 0, 100, 0, 0, 0, 200,
		10, 10, 2, 0, 1, 0, 10,
	})
	f.Add([]byte{
		0, 100, 0, 100, 0, 4, 0, 200,
		10, 10, 2, 0, 4, 0, 20, // starts 400 ms, ends 600 ms: crosses window 0 -> 1
		10, 10, 3, 0, 5, 0, 1, // marked for removal
	})
	f.Add([]byte{
		0, 255, 0, 255, 0, 0, 255, 255,
		5, 5, 4, 0, 0, 3, 0, // 7680 ms long: > window, spatial shard
	})
	f.Add([]byte{
		0, 100, 0, 100, 255, 0, 0, 200, // query starts at -25600 ms
		10, 10, 2, 255, 0, 0, 50, // pre-epoch entry
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		q, ts, te, entries, remove := fuzzEntries(data)
		sh, err := NewSharded(ShardedOptions{WindowMillis: fuzzWindowMillis, SpatialShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		lin := NewLinear()
		for i, e := range entries {
			errS, errL := sh.Insert(e), lin.Insert(e)
			if (errS == nil) != (errL == nil) {
				t.Fatalf("entry %d: sharded err %v, linear err %v", i, errS, errL)
			}
		}
		for i, e := range entries {
			if !remove[i] {
				continue
			}
			if okS, okL := sh.Remove(e.ID), lin.Remove(e.ID); okS != okL {
				t.Fatalf("remove %d: sharded %v, linear %v", e.ID, okS, okL)
			}
		}
		if sh.Len() != lin.Len() {
			t.Fatalf("Len: sharded %d, linear %d", sh.Len(), lin.Len())
		}
		a := ids(sh.Search(q, ts, te))
		b := ids(lin.Search(q, ts, te))
		if len(a) != len(b) {
			t.Fatalf("query %+v [%d,%d]: sharded %d hits %v, linear %d hits %v",
				q, ts, te, len(a), a, len(b), b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %+v [%d,%d]: hit %d: sharded id %d, linear id %d",
					q, ts, te, i, a[i], b[i])
			}
		}
		if err := sh.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
