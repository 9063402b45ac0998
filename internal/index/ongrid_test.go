package index_test

import (
	"math"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/segment"
)

// The precision contract every Index keeps: an entry reads back as its
// grid rounding (fov.CoordToGrid, fov.ThetaToGrid, Camera.OnGrid) —
// bit-identical when it already sits on the grid, as an upload decoded
// from the wire does — and an entry whose camera has no valid grid form
// is refused, as the store refuses to journal it.
func TestIndexesHoldEntriesOnTheGrid(t *testing.T) {
	onGrid := func(lat, lng int32, theta uint16) fov.FoV {
		return fov.FoV{P: geo.Point{Lat: fov.CoordFromGrid(lat), Lng: fov.CoordFromGrid(lng)}, Theta: fov.ThetaFromGrid(theta)}
	}
	// A decoded code is the float64 nearest it, as a literal is.
	cam := fov.Camera{HalfAngleDeg: 30.12, RadiusMeters: 20.5}
	cases := []struct {
		name string
		fov  fov.FoV
		cam  fov.Camera
		want fov.FoV
		wcam fov.Camera
	}{
		{"on the grid", onGrid(400_012_345, 1_163_259_871, 12_345), cam,
			onGrid(400_012_345, 1_163_259_871, 12_345), cam},
		{"off the grid", fov.FoV{P: geo.Point{Lat: 40.00123454, Lng: 116.32598706}, Theta: 123.454}, fov.Camera{HalfAngleDeg: 30.123, RadiusMeters: 20.496},
			onGrid(400_012_345, 1_163_259_871, 12_345), cam},
		{"negative heading", fov.FoV{P: geo.Point{Lat: 40.0012345, Lng: 116.3259871}, Theta: -10}, fov.Camera{},
			onGrid(400_012_345, 1_163_259_871, 35_000), fov.Camera{}},
		{"heading rounds to 360", fov.FoV{P: geo.Point{Lat: 40.0012345, Lng: 116.3259871}, Theta: 359.996}, fov.Camera{},
			onGrid(400_012_345, 1_163_259_871, 0), fov.Camera{}},
	}
	indexes := []struct {
		name string
		x    index.Index
	}{{"RTree", index.NewRTree()}, {"Linear", index.NewLinear()}}
	for _, ix := range indexes {
		for i, tc := range cases {
			e := index.Entry{ID: uint64(i + 1), Provider: "p", Camera: tc.cam,
				Rep: segment.Representative{FoV: tc.fov, StartMillis: 1000, EndMillis: 2000}}
			if err := ix.x.Insert(e); err != nil {
				t.Fatalf("%s: %s: %v", ix.name, tc.name, err)
			}
			want := e
			want.Rep.FoV, want.Camera = tc.want, tc.wcam
			if got := e.OnGrid(); got != want {
				t.Fatalf("%s: Entry.OnGrid gives %+v, want %+v", tc.name, got, want)
			}
			var got []index.Entry
			for _, h := range ix.x.Search(geo.RectAround(tc.want.P, 1), 0, 3000) {
				if h.ID == e.ID {
					got = append(got, h)
				}
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("%s: %s reads back as %+v, want %+v", ix.name, tc.name, got, want)
			}
			// Bit-identical, not merely equal: -0 and +0 compare equal.
			if math.Float64bits(got[0].Rep.FoV.Theta) != math.Float64bits(want.Rep.FoV.Theta) {
				t.Fatalf("%s: %s heading bits %#x, want %#x", ix.name, tc.name,
					math.Float64bits(got[0].Rep.FoV.Theta), math.Float64bits(want.Rep.FoV.Theta))
			}
		}
		for _, cam := range []fov.Camera{
			{HalfAngleDeg: 89.999, RadiusMeters: 20}, // rounds to 90°
			{HalfAngleDeg: 0.001, RadiusMeters: 20},  // rounds to 0°
			{HalfAngleDeg: 30, RadiusMeters: 0.001},  // rounds to 0 m
			{HalfAngleDeg: 30, RadiusMeters: 5e7},    // past the grid's radius
		} {
			e := index.Entry{ID: 99, Provider: "p", Camera: cam,
				Rep: segment.Representative{FoV: cases[0].fov, StartMillis: 1000, EndMillis: 2000}}
			if err := ix.x.Insert(e); err == nil {
				t.Fatalf("%s: camera %+v, which has no valid grid form, was indexed", ix.name, cam)
			}
		}
		if n := ix.x.Len(); n != len(cases) {
			t.Fatalf("%s: Len = %d, want %d", ix.name, n, len(cases))
		}
	}
}
