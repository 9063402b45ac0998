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
	"fovr/internal/workload"
)

// TestSplitMetricBand pins the weight the R* split gives time when it
// chooses a split axis (rtree's kappa) inside a band rather than on a
// knife edge. A 50 000-entry hotspot corpus is loaded 20 per InsertBatch,
// and the three top-20 question shapes of the end-to-end benchmark are
// asked of the tree: R* must test fewer leaf entries than Guttman's
// quadratic split did at the median and at the 99th percentile, at kappa
// and at a third and three times it. The quadratic split is gone from
// the tree; its counts on this corpus, taken from this test while it
// still built the quadratic tree beside R*, are pinned in quad. Scaling
// every stored and asked time by f stands in for R* at f·kappa:
// ChooseSplitAxis then weighs time extents by f·kappa, and the areas and
// overlaps the other steps compare all scale by f (on this corpus a
// build with kappa itself set to kappa/3 or 3·kappa gives the same
// counts). The counts are exact. They were taken at M = 16, and the
// trees are built at M = 16: the pin holds the split itself, not the
// node width (at the default M = 32 a leaf holds twice the entries, so
// a point question tests more of them while it visits fewer nodes).
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

	// quad is, per shape, the median and 99th percentile of the leaf
	// entries one question tested in the quadratic-split tree.
	quad := [][2]int64{{47, 354}, {415, 1416}, {137, 1031}}

	// scanned returns, per shape, the median and 99th percentile of the
	// leaf entries one question tests.
	scanned := func(f float64) [][2]int64 {
		scale := func(ms int64) int64 { return int64(math.Round(float64(ms) * f)) }
		x := index.NewRTreeM(16)
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

	for _, v := range []struct {
		name string
		f    float64
	}{{"kappa", 1}, {"kappa/3", 1.0 / 3}, {"3kappa", 3}} {
		got := scanned(v.f)
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
