package query_test

import (
	"context"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/workload"
)

// TestTopNWalkDoesLessWork holds the steered walk to its purpose in
// counts, not time: on a 50 000-camera hotspot city, a top-20 question
// of 300 m over the whole day asked inside a hotspot must hand the
// filter at least 5x fewer entries, and visit at least 2x fewer index
// nodes, than the plain search of the same box finds and visits. With no
// result limit there is no bound, and the walk must visit exactly what
// the plain search visits.
func TestTopNWalkDoesLessWork(t *testing.T) {
	cfg := workload.Config{Seed: 16, Distribution: workload.Hotspot}
	entries := workload.Entries(cfg, 50_000)
	cam := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

	tree := index.NewRTree()
	if err := tree.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}

	// The question inside a hotspot: of 200 drawn over the city, the one
	// whose box holds the most cameras.
	var q query.Query
	var box geo.Rect
	most := 0
	for _, c := range workload.Queries(cfg, 200, 300, workload.DefaultConfig.HorizonMillis) {
		r := geo.RectAround(c.Center, c.RadiusMeters+cam.RadiusMeters)
		if n := len(tree.Search(r, c.StartMillis, c.EndMillis)); n > most {
			q, box, most = c, r, n
		}
	}
	if most < 1000 {
		t.Fatalf("densest question holds %d cameras: not inside a hotspot", most)
	}

	before := tree.TreeStats()
	inBox := len(tree.Search(box, q.StartMillis, q.EndMillis))
	plainNodes := tree.TreeStats().NodeVisits - before.NodeVisits

	walk := func(maxResults int) *obs.QueryTrace {
		tr := obs.NewQueryTrace("rtree")
		opts := query.Options{Camera: cam, MaxResults: maxResults}
		if _, err := query.SearchCtx(obs.WithTrace(context.Background(), tr), tree, q, opts); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	top := walk(20)
	t.Logf("box holds %d, plain search visits %d nodes; top-20 walk hands over %d, visits %d nodes, bound %.1f m",
		inBox, plainNodes, top.Candidates, top.NodesVisited, top.BoundMeters)
	if top.Returned != 20 {
		t.Fatalf("%d results, want 20", top.Returned)
	}
	if top.Candidates*5 > inBox {
		t.Errorf("the filter saw %d of the box's %d entries, want at least 5x fewer", top.Candidates, inBox)
	}
	if top.NodesVisited*2 > plainNodes {
		t.Errorf("the walk visited %d nodes, the plain search %d, want at least 2x fewer", top.NodesVisited, plainNodes)
	}
	if all := walk(0); all.Candidates != inBox || all.NodesVisited != plainNodes {
		t.Errorf("with no limit the walk saw %d entries over %d nodes, the plain search %d over %d",
			all.Candidates, all.NodesVisited, inBox, plainNodes)
	}
}
