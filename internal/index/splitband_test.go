package index_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/rtree"
	"fovr/internal/workload"
)

// TestSplitMetricBand pins the weight the R* split gives time when it
// chooses a split axis (rtree's kappa) inside a band rather than on a
// knife edge. A 50 000-entry hotspot corpus is loaded 20 per InsertBatch
// under the quadratic split and under R*, and the three top-20 question
// shapes of the end-to-end benchmark are asked of each tree: R* must test
// fewer leaf entries than quadratic at the median and at the 99th
// percentile, at kappa and at a third and three times it. Scaling every
// stored and asked time by f stands in for R* at f·kappa: ChooseSplitAxis
// then weighs time extents by f·kappa, and the areas and overlaps the
// other steps compare all scale by f (on this corpus a build with kappa
// itself set to kappa/3 or 3·kappa gives the same counts). The counts
// are exact.
func TestSplitMetricBand(t *testing.T) {
	const (
		n         = 50_000
		questions = 1000
		hour      = 3_600_000
	)
	cfg := workload.Config{Seed: 5, Distribution: workload.Hotspot}
	entries := workload.Entries(cfg, n)
	opts := query.Options{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, MaxResults: 20}
	shapes := []struct {
		name   string
		radius float64
		window int64
	}{{"point", 30, hour}, {"scan", 300, 24 * hour}, {"wide", 30, 12 * hour}}

	// scanned returns, per shape, the median and 99th percentile of the
	// leaf entries one question tests.
	scanned := func(split rtree.SplitAlgorithm, f float64) [][2]int64 {
		scale := func(ms int64) int64 { return int64(math.Round(float64(ms) * f)) }
		x, err := index.NewRTree(rtree.Options{Split: split})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]index.Entry, 0, 20)
		for i := 0; i < n; i += 20 {
			batch = batch[:0]
			for _, e := range entries[i:min(i+20, n)] {
				e.Rep.StartMillis, e.Rep.EndMillis = scale(e.Rep.StartMillis), scale(e.Rep.EndMillis)
				batch = append(batch, e)
			}
			if err := x.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		var out [][2]int64
		for _, sh := range shapes {
			counts := make([]int64, 0, questions)
			for _, q := range workload.Queries(cfg, questions, sh.radius, sh.window) {
				q.StartMillis, q.EndMillis = scale(q.StartMillis), scale(q.EndMillis)
				tr := obs.NewQueryTrace("rtree")
				if _, err := query.SearchCtx(obs.WithTrace(context.Background(), tr), x, q, opts); err != nil {
					t.Fatal(err)
				}
				counts = append(counts, tr.LeafEntriesScanned)
			}
			slices.Sort(counts)
			out = append(out, [2]int64{counts[len(counts)/2], counts[len(counts)*99/100]})
		}
		return out
	}

	quad := scanned(rtree.QuadraticSplit, 1)
	for _, v := range []struct {
		name string
		f    float64
	}{{"kappa", 1}, {"kappa/3", 1.0 / 3}, {"3kappa", 3}} {
		got := scanned(rtree.RStarSplit, v.f)
		for i, sh := range shapes {
			t.Logf("%-7s %-5s leaf entries p50 %4d (quadratic %4d), p99 %4d (quadratic %4d)",
				v.name, sh.name, got[i][0], quad[i][0], got[i][1], quad[i][1])
			if got[i][0] >= quad[i][0] || got[i][1] >= quad[i][1] {
				t.Errorf("R* at %s on %s tests p50 %d / p99 %d leaf entries, quadratic %d / %d: want fewer at both",
					v.name, sh.name, got[i][0], got[i][1], quad[i][0], quad[i][1])
			}
		}
	}
}
