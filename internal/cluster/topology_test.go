package cluster

import (
	"math"
	"strings"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/segment"
)

func rep(p geo.Point, start, end int64) segment.Representative {
	return segment.Representative{FoV: fov.FoV{P: p, Theta: 90}, StartMillis: start, EndMillis: end}
}

func threeWay(t *testing.T) *Topology {
	t.Helper()
	topo, err := Parse([]byte(`{
		"windowMillis": 3600000,
		"spatialShards": 8,
		"partitions": [
			{"id": "p0", "leader": "http://a:1", "windows": [{"from": 0, "to": 7}], "spatialCells": [0,1,2]},
			{"id": "p1", "leader": "http://b:1", "replicas": ["http://b:2"], "windows": [{"from": 8, "to": 15}], "spatialCells": [3,4,5]},
			{"id": "p2", "leader": "http://c:1", "windows": [{"from": 16, "to": 23}], "spatialCells": [6,7]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyValidate(t *testing.T) {
	bad := []struct {
		name, doc, want string
	}{
		{"empty", `{"partitions": []}`, "no partitions"},
		{"dup id", `{"partitions": [{"id":"p","leader":"u"},{"id":"p","leader":"v"}]}`, "duplicate partition id"},
		{"no leader", `{"partitions": [{"id":"p"}]}`, "no leader"},
		{"inverted range", `{"partitions": [{"id":"p","leader":"u","windows":[{"from":5,"to":1}]}]}`, "inverted"},
		{"overlap", `{"partitions": [
			{"id":"a","leader":"u","windows":[{"from":0,"to":5}]},
			{"id":"b","leader":"v","windows":[{"from":5,"to":9}]}]}`, "overlap"},
		{"cell out of range", `{"spatialShards": 4, "partitions": [{"id":"p","leader":"u","spatialCells":[4]}]}`, "out of range"},
		{"dup cell", `{"spatialShards": 4, "partitions": [
			{"id":"a","leader":"u","spatialCells":[1]},
			{"id":"b","leader":"v","spatialCells":[1]}]}`, "owned by both"},
		{"cells with disabled spatial", `{"spatialShards": -1, "partitions": [{"id":"p","leader":"u","spatialCells":[0]}]}`, "disabled"},
		// A loaded map names real nodes: http://host:port and nothing else.
		{"bare word", `{"partitions": [{"id":"p","leader":"pending"}]}`, "want http://host:port"},
		{"no scheme", `{"partitions": [{"id":"p","leader":"10.0.0.1:8477"}]}`, "want http://host:port"},
		{"https", `{"partitions": [{"id":"p","leader":"https://a:1"}]}`, "scheme must be http"},
		{"no port", `{"partitions": [{"id":"p","leader":"http://a"}]}`, "want host:port"},
		{"path", `{"partitions": [{"id":"p","leader":"http://a:1/api"}]}`, "path, query and fragment not allowed"},
		{"trailing slash", `{"partitions": [{"id":"p","leader":"http://a:1/"}]}`, "path, query and fragment not allowed"},
		{"query", `{"partitions": [{"id":"p","leader":"http://a:1?x=1"}]}`, "path, query and fragment not allowed"},
		{"userinfo", `{"partitions": [{"id":"p","leader":"http://u:pw@a:1"}]}`, "userinfo not allowed"},
		{"bad replica", `{"partitions": [{"id":"p","leader":"http://a:1","replicas":["http://b:2","b:3"]}]}`, `partition "p"`},
	}
	for _, tc := range bad {
		if _, err := Parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	topo, err := Parse([]byte(`{"partitions": [{"id":"p0","leader":"http://a:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.WindowMillis != index.DefaultShardWindowMillis || topo.SpatialShards != 8 {
		t.Fatalf("defaults not filled: %+v", topo)
	}
}

func TestOwnerOfKey(t *testing.T) {
	topo := threeWay(t)
	for key, want := range map[int64]string{0: "p0", 7: "p0", 8: "p1", 23: "p2"} {
		if got := topo.OwnerOfKey(key).ID; got != want {
			t.Errorf("key %d: owner %s, want %s", key, got, want)
		}
	}
	// Outside every explicit range: floor-modulo fallback, negative
	// keys included.
	if got := topo.OwnerOfKey(24).ID; got != "p0" {
		t.Errorf("key 24: %s, want p0 (24 mod 3)", got)
	}
	if got := topo.OwnerOfKey(-1).ID; got != "p2" {
		t.Errorf("key -1: %s, want p2 (floorMod(-1,3)=2)", got)
	}
}

func TestOwnerOfRep(t *testing.T) {
	topo := threeWay(t)
	w := topo.WindowMillis
	p := geo.Point{Lat: 40, Lng: 116.3}

	// Normal segment: window-key owner.
	owner, err := topo.OwnerOfRep(rep(p, 9*w, 9*w+1000))
	if err != nil || owner.ID != "p1" {
		t.Fatalf("normal rep: %v %v, want p1", owner, err)
	}
	// Over-long segment: spatial-cell owner, same cell the index uses.
	long := rep(p, 0, 2*w)
	owner, err = topo.OwnerOfRep(long)
	if err != nil {
		t.Fatal(err)
	}
	want := topo.SpatialOwner(index.SpatialCell(p, topo.SpatialShards))
	if owner != want {
		t.Fatalf("over-long rep: owner %s, want %s", owner.ID, want.ID)
	}
	// Guard agrees.
	if err := topo.OwnsRep(owner.ID)(long); err != nil {
		t.Fatalf("OwnsRep(%s) rejected its own rep: %v", owner.ID, err)
	}
	for _, other := range topo.Partitions {
		if other.ID != owner.ID {
			if err := topo.OwnsRep(other.ID)(long); err == nil {
				t.Fatalf("OwnsRep(%s) accepted %s's rep", other.ID, owner.ID)
			}
		}
	}

	// Disabled spatial shards reject over-long reps.
	noSpatial, err := Parse([]byte(`{"spatialShards": -1, "partitions": [{"id":"p0","leader":"http://u:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noSpatial.OwnerOfRep(rep(p, 0, 2*noSpatial.WindowMillis)); err == nil {
		t.Fatal("over-long rep accepted with spatial shards disabled")
	}
}

func ownerIDs(ps []*Partition) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func eqIDs(a []string, b ...string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOwnersForQuery(t *testing.T) {
	topo := threeWay(t)
	w := topo.WindowMillis

	// A query inside p1's range still fans to window floor(start/W)-1;
	// spatial cells are owned by all three, so every partition shows
	// up. Narrow ownership needs a spatial-free topology (below).
	got := ownerIDs(topo.OwnersForQuery(9*w, 9*w+1000))
	if !eqIDs(got, "p0", "p1", "p2") {
		t.Fatalf("query in p1 range with spread spatial cells: %v", got)
	}

	// Spatial cells all on p0: the fan-out shows the real range math.
	narrow, err := Parse([]byte(`{
		"windowMillis": 3600000,
		"partitions": [
			{"id": "p0", "leader": "http://u:1", "windows": [{"from": 0, "to": 7}], "spatialCells": [0,1,2,3,4,5,6,7]},
			{"id": "p1", "leader": "http://v:1", "windows": [{"from": 8, "to": 15}]},
			{"id": "p2", "leader": "http://w:1", "windows": [{"from": 16, "to": 23}]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	// Query at window 9: visits keys 8..9, both p1's, plus spatial p0.
	if got := ownerIDs(narrow.OwnersForQuery(9*w, 9*w+1000)); !eqIDs(got, "p0", "p1") {
		t.Fatalf("narrow query: %v, want [p0 p1]", got)
	}
	// Range straddling p1/p2 boundary: keys 15..16.
	if got := ownerIDs(narrow.OwnersForQuery(16*w, 16*w+1000)); !eqIDs(got, "p0", "p1", "p2") {
		t.Fatalf("straddle query: %v", got)
	}
	// Uncovered gap (keys 24..26) hits the modulo fallback.
	if got := ownerIDs(narrow.OwnersForQuery(25*w, 26*w+1000)); !eqIDs(got, "p0", "p1", "p2") {
		t.Fatalf("gap query: %v (keys 24,25,26 -> all residues)", got)
	}
	// Huge uncovered span includes everyone without iterating.
	if got := ownerIDs(narrow.OwnersForQuery(math.MinInt64/2, math.MaxInt64/2)); !eqIDs(got, "p0", "p1", "p2") {
		t.Fatalf("huge span: %v", got)
	}
	// The fan-out range must match the index's windowRange exactly,
	// including the floor(start/W)-1 widening.
	lo, hi := index.WindowKeyRange(9*w, 9*w+1000, w)
	if lo != 8 || hi != 9 {
		t.Fatalf("WindowKeyRange = [%d, %d], want [8, 9]", lo, hi)
	}
}

func TestIDBase(t *testing.T) {
	topo := threeWay(t)
	b0, _ := topo.IDBase("p0")
	b1, _ := topo.IDBase("p1")
	b2, _ := topo.IDBase("p2")
	if b0 != 0 || b1 != 1<<48 || b2 != 2<<48 {
		t.Fatalf("id bases: %d %d %d", b0, b1, b2)
	}
	if _, err := topo.IDBase("nope"); err == nil {
		t.Fatal("unknown partition accepted")
	}
}
