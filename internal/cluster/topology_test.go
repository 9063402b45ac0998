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
		"partitions": [
			{"id": "p0", "leader": "http://a:1", "windows": [{"from": 0, "to": 7}]},
			{"id": "p1", "leader": "http://b:1", "replicas": ["http://b:2"], "windows": [{"from": 8, "to": 15}]},
			{"id": "p2", "leader": "http://c:1", "windows": [{"from": 16, "to": 23}]}
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
	if topo.WindowMillis != index.DefaultShardWindowMillis {
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

// TestOwnerOfRep: an ordinary segment goes to its window key's owner,
// and a segment longer than the window goes to the first partition,
// whatever the windows, wherever it stands and whenever it starts. The
// ownership guards agree.
func TestOwnerOfRep(t *testing.T) {
	topologies := map[string]string{
		"three-way": `{"windowMillis": 3600000, "partitions": [
			{"id": "p0", "leader": "http://a:1", "windows": [{"from": 0, "to": 7}]},
			{"id": "p1", "leader": "http://b:1", "windows": [{"from": 8, "to": 15}]},
			{"id": "p2", "leader": "http://c:1", "windows": [{"from": 16, "to": 23}]}]}`,
		"first owns the last windows": `{"windowMillis": 60000, "partitions": [
			{"id": "p0", "leader": "http://a:1", "windows": [{"from": 16, "to": 23}]},
			{"id": "p1", "leader": "http://b:1", "windows": [{"from": 0, "to": 15}]}]}`,
		"modulo only": `{"partitions": [
			{"id": "p0", "leader": "http://a:1"},
			{"id": "p1", "leader": "http://b:1"},
			{"id": "p2", "leader": "http://c:1"},
			{"id": "p3", "leader": "http://d:1"}]}`,
		"one partition": `{"partitions": [{"id": "p0", "leader": "http://a:1"}]}`,
	}
	points := []geo.Point{{Lat: 40, Lng: 116.3}, {Lat: -33.9, Lng: 151.2}, {Lat: 0, Lng: -180}, {Lat: 89.9, Lng: 0}}
	for name, doc := range topologies {
		topo, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		w := topo.WindowMillis
		for key := int64(-30); key <= 30; key++ {
			for _, p := range points {
				start := key*w + 17
				long := rep(p, start, start+w+1)
				owner, err := topo.OwnerOfRep(long)
				if err != nil || owner.ID != "p0" {
					t.Fatalf("%s: over-long rep at key %d: owner %v (%v), want p0", name, key, owner, err)
				}
				for _, q := range topo.Partitions {
					if err := topo.OwnsRep(q.ID)(long); (err == nil) != (q.ID == "p0") {
						t.Fatalf("%s: OwnsRep(%s) on an over-long rep: %v", name, q.ID, err)
					}
				}
				// A segment exactly one window long is not over-long.
				owner, err = topo.OwnerOfRep(rep(p, start, start+w))
				if want := topo.OwnerOfKey(key); err != nil || owner != want {
					t.Fatalf("%s: rep at key %d: owner %v (%v), want %s", name, key, owner, err, want.ID)
				}
			}
		}
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

// TestOwnersForQuery pins exact owner sets: the owners of the window
// keys floor(start/W)-1 .. floor(end/W), explicit or modulo, plus the
// first partition, in topology order.
func TestOwnersForQuery(t *testing.T) {
	topo := threeWay(t)
	w := topo.WindowMillis
	cases := []struct {
		name       string
		start, end int64
		want       []string
	}{
		{"keys 8..9, p1's", 9 * w, 9*w + 1000, []string{"p0", "p1"}},
		{"keys 1..3, p0's", 2 * w, 3 * w, []string{"p0"}},
		{"keys 19..22, p2's", 20 * w, 22 * w, []string{"p0", "p2"}},
		{"keys 15..16 straddle p1 and p2", 16 * w, 16*w + 1000, []string{"p0", "p1", "p2"}},
		{"keys -1..0, the modulo -1 and p0's 0", 0, 1000, []string{"p0", "p2"}},
		{"keys 29..30 mod 3 are 2 and 0", 30 * w, 30*w + 1000, []string{"p0", "p2"}},
		{"keys 30..31 mod 3 are 0 and 1", 31 * w, 31*w + 1000, []string{"p0", "p1"}},
		{"keys -6..-5 mod 3 are 0 and 1", -5 * w, -5*w + 1, []string{"p0", "p1"}},
		{"keys 24..26 hit every residue", 25 * w, 26*w + 1000, []string{"p0", "p1", "p2"}},
		{"a huge span includes everyone without iterating", math.MinInt64 / 2, math.MaxInt64 / 2, []string{"p0", "p1", "p2"}},
	}
	for _, tc := range cases {
		if got := ownerIDs(topo.OwnersForQuery(tc.start, tc.end)); !eqIDs(got, tc.want...) {
			t.Errorf("%s: owners %v, want %v", tc.name, got, tc.want)
		}
	}

	// The first partition is visited even where it owns no key.
	last, err := Parse([]byte(`{"partitions": [
		{"id": "p0", "leader": "http://a:1", "windows": [{"from": 16, "to": 23}]},
		{"id": "p1", "leader": "http://b:1", "windows": [{"from": 0, "to": 15}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := ownerIDs(last.OwnersForQuery(2*w, 3*w)); !eqIDs(got, "p0", "p1") {
		t.Errorf("keys 1..3 of p1: owners %v, want [p0 p1]", got)
	}

	// The fan-out range must match the index's windowRange exactly,
	// including the floor(start/W)-1 widening.
	lo, hi := index.WindowKeyRange(9*w, 9*w+1000, w)
	if lo != 8 || hi != 9 {
		t.Fatalf("WindowKeyRange = [%d, %d], want [8, 9]", lo, hi)
	}
}

// TestBenchShapedOwners: on a topology shaped like the end-to-end
// bench's (three partitions owning window keys [-1,7] [8,15] [16,24] of
// one hour, nothing else named), every question visits the owners of
// its window keys plus the first partition, over a sweep of question
// windows across the day and past both of its ends.
func TestBenchShapedOwners(t *testing.T) {
	topo, err := Parse([]byte(`{"windowMillis": 3600000, "partitions": [
		{"id": "p0", "leader": "http://a:1", "windows": [{"from": -1, "to": 7}]},
		{"id": "p1", "leader": "http://b:1", "windows": [{"from": 8, "to": 15}]},
		{"id": "p2", "leader": "http://c:1", "windows": [{"from": 16, "to": 24}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	const hour = int64(3_600_000)
	durations := []int64{0, 1, hour / 2, hour, hour + 1, 3 * hour, 12 * hour, 24 * hour, 40 * hour}
	checked := 0
	for start := -3 * hour; start <= 28*hour; start += hour / 4 {
		for _, d := range durations {
			for _, s := range []int64{start, start + 1, start - 1} {
				want := make([]bool, len(topo.Partitions))
				want[0] = true
				lo, hi := index.WindowKeyRange(s, s+d, hour)
				for k := lo; k <= hi; k++ {
					owner := topo.OwnerOfKey(k)
					for i := range topo.Partitions {
						want[i] = want[i] || &topo.Partitions[i] == owner
					}
				}
				var wantIDs []string
				for i, in := range want {
					if in {
						wantIDs = append(wantIDs, topo.Partitions[i].ID)
					}
				}
				if got := ownerIDs(topo.OwnersForQuery(s, s+d)); !eqIDs(got, wantIDs...) {
					t.Fatalf("question [%d, %d]: owners %v, want %v", s, s+d, got, wantIDs)
				}
				checked++
			}
		}
	}
	t.Logf("%d question windows, each visiting its window owners plus p0", checked)
}

// TestParseRefusesUnknownKeys: a topology document holding a key the map
// does not define fails with that key named, the deleted spatial
// placement's among them, and so does one with data after it.
func TestParseRefusesUnknownKeys(t *testing.T) {
	const parts = `"partitions": [{"id": "p0", "leader": "http://a:1"}]`
	bad := []struct {
		name, doc, want string
	}{
		{"spatialShards", `{"spatialShards": 8, ` + parts + `}`, `unknown field "spatialShards"`},
		{"spatialCells", `{"partitions": [{"id": "p0", "leader": "http://a:1", "spatialCells": [0, 1]}]}`, `unknown field "spatialCells"`},
		{"misspelt key", `{"windowsMillis": 60000, ` + parts + `}`, `unknown field "windowsMillis"`},
		{"unknown range key", `{"partitions": [{"id": "p0", "leader": "http://a:1", "windows": [{"from": 0, "upTo": 3}]}]}`, `unknown field "upTo"`},
		{"second document", `{` + parts + `} {}`, "after the top-level value"},
		{"trailing word", `{` + parts + `}x`, "after the top-level value"},
		{"trailing bracket", `{` + parts + `}]`, "after the top-level value"},
		{"empty", ``, "cluster: topology"},
	}
	for _, tc := range bad {
		if _, err := Parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := Parse([]byte("\n {" + parts + "} \r\n\t")); err != nil {
		t.Errorf("a document between whitespace: %v", err)
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
