package figures

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/trace"
	"fovr/internal/wire"
	"fovr/internal/workload"
)

// TableAblationIndex compares the two ways to build the spatial index —
// insertion, which splits overflowing nodes with R*, and STR bulk
// loading — on build time, node count, and query latency over the same
// citywide dataset.
func TableAblationIndex(n, queries int) *Table {
	if n <= 0 {
		n = 20000
	}
	if queries <= 0 {
		queries = 200
	}
	t := &Table{
		Title:   "Ablation — index construction strategy",
		Columns: []string{"strategy", "build_ms", "nodes", "height", "query_us"},
	}
	cfg := workload.Config{Seed: 71}
	entries := workload.Entries(cfg, n)
	qs := workload.Queries(cfg, queries, 50, 3_600_000)
	opts := query.Options{Camera: defaultCam, MaxResults: 10}

	type build struct {
		name string
		make func() *index.RTree
	}
	builds := []build{
		{"insert/rstar", func() *index.RTree {
			idx := index.NewRTree()
			for _, e := range entries {
				if err := idx.Insert(e); err != nil {
					panic(err)
				}
			}
			return idx
		}},
		{"bulk/STR", func() *index.RTree {
			idx, err := index.BulkLoadRTree(entries)
			if err != nil {
				panic(err)
			}
			return idx
		}},
	}
	for _, b := range builds {
		start := time.Now()
		idx := b.make()
		buildMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		for _, q := range qs {
			if _, err := query.Search(idx, q, opts); err != nil {
				panic(err)
			}
		}
		queryUS := float64(time.Since(start).Microseconds()) / float64(len(qs))
		t.AddRow(b.name, f1(buildMS), fmt.Sprint(idx.NodeCount()), fmt.Sprint(idx.Height()), f1(queryUS))
	}
	t.AddNote("STR bulk loading trades online updates for the fastest build and tightest tree; insertion's R* split weighs time against position when it picks a split axis, so its nodes are shaped like the questions.")
	return t
}

// TableAblationThreshold sweeps Algorithm 1's segmentation threshold over
// a fixed capture, showing the density/traffic trade-off Section VII
// discusses.
func TableAblationThreshold() *Table {
	t := &Table{
		Title:   "Ablation — segmentation threshold sensitivity (Section VII)",
		Columns: []string{"threshold", "segments", "mean_frames_per_segment", "descriptor_bytes"},
	}
	samples, err := trace.BikeWithTurn(trace.Config{SampleHz: 10})
	if err != nil {
		panic(err)
	}
	for _, th := range []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
		cfg := segment.Config{Camera: defaultCam, Threshold: th}
		results, err := segment.Split(cfg, samples)
		if err != nil {
			panic(err)
		}
		mean := float64(len(samples)) / float64(len(results))
		t.AddRow(f3(th), fmt.Sprint(len(results)), f1(mean), fmt.Sprint(len(results)*wire.RepWireBytes))
	}
	t.AddNote("Expectation (paper): a bigger threshold segments the video more densely — more, shorter segments and more descriptor bytes, but finer retrieval granularity.")
	return t
}

// TableAblationOrientation quantifies step 3 of the retrieval pipeline:
// with and without the orientation filter, measured as precision against
// geometric ground truth (does the representative actually cover the
// query center?).
func TableAblationOrientation(n, queries int) *Table {
	if n <= 0 {
		n = 10000
	}
	if queries <= 0 {
		queries = 200
	}
	t := &Table{
		Title:   "Ablation — orientation filter (Section V-B step 3)",
		Columns: []string{"pipeline", "mean_results", "precision"},
	}
	// A dense afternoon downtown (2 km, 2 h) so queries routinely have
	// both covering and non-covering cameras nearby.
	cfg := workload.Config{Seed: 72, ExtentMeters: 2000, HorizonMillis: 2 * 3600 * 1000}
	entries := workload.Entries(cfg, n)
	idx, err := index.BulkLoadRTree(entries)
	if err != nil {
		panic(err)
	}
	qs := workload.Queries(cfg, queries, 20, 3_600_000)

	run := func(skip bool) (meanResults, precision float64) {
		totalResults, covered := 0, 0
		for _, q := range qs {
			hits, err := query.Search(idx, q, query.Options{
				Camera:                defaultCam,
				SkipOrientationFilter: skip,
			})
			if err != nil {
				panic(err)
			}
			totalResults += len(hits)
			for _, h := range hits {
				if h.Entry.Rep.FoV.CoversCircle(defaultCam, q.Center, q.RadiusMeters) {
					covered++
				}
			}
		}
		if totalResults == 0 {
			return 0, 1
		}
		return float64(totalResults) / float64(len(qs)), float64(covered) / float64(totalResults)
	}
	withMean, withPrec := run(false)
	withoutMean, withoutPrec := run(true)
	t.AddRow("with orientation filter", f1(withMean), f3(withPrec))
	t.AddRow("position-only (no filter)", f1(withoutMean), f3(withoutPrec))
	t.AddNote("Without the filter, results include cameras near the spot but pointing elsewhere (the paper's Merkel/World-Cup example): precision drops accordingly.")
	return t
}

// TableAblationAbstraction compares the paper's arithmetic-mean azimuth
// abstraction (Eq. 11) against the circular mean on captures that cross
// the 0/360 wrap.
func TableAblationAbstraction() *Table {
	t := &Table{
		Title:   "Ablation — segment abstraction: arithmetic vs circular mean",
		Columns: []string{"capture", "mean_kind", "max_theta_error_deg"},
	}
	// A rotation capture that sweeps across north is the worst case.
	samples, err := trace.RotateInPlace(trace.Config{SampleHz: 10}, trace.ScenarioOrigin, 330, 6, 10)
	if err != nil {
		panic(err)
	}
	for _, circular := range []bool{false, true} {
		cfg := segment.Config{Camera: defaultCam, Threshold: 0.5, CircularMean: circular, KeepSamples: true}
		results, err := segment.Split(cfg, samples)
		if err != nil {
			panic(err)
		}
		worst := 0.0
		for _, r := range results {
			// Ground truth: circular mean of members.
			truth := circularMean(r.Segment.Samples)
			if e := geo.AngleDiff(r.Representative.FoV.Theta, truth); e > worst {
				worst = e
			}
		}
		kind := "arithmetic (Eq. 11)"
		if circular {
			kind = "circular"
		}
		t.AddRow("rotation across north", kind, f1(worst))
	}
	t.AddNote("The paper's arithmetic mean misplaces the representative azimuth when a segment straddles north; the circular option fixes it at no cost.")
	return t
}

func circularMean(samples []fov.Sample) float64 {
	var s, c float64
	for _, sm := range samples {
		rad := sm.Theta * math.Pi / 180
		s += math.Sin(rad)
		c += math.Cos(rad)
	}
	return geo.NormalizeDeg(math.Atan2(s, c) * 180 / math.Pi)
}

// TableAblationNoise sweeps sensor noise over a fixed capture and shows
// how segment counts inflate with raw Algorithm 1 versus the conditioned
// segmenter (exponential smoothing + minimum segment duration). The
// paper ran on a real HTC One without describing sensor conditioning;
// this table shows why a deployment needs it.
func TableAblationNoise() *Table {
	t := &Table{
		Title:   "Ablation — segmentation stability under sensor noise",
		Columns: []string{"gps_sigma_m", "compass_sigma_deg", "raw_segments", "conditioned_segments", "clean_segments"},
	}
	cleanSamples, err := trace.BikeWithTurn(trace.Config{SampleHz: 10})
	if err != nil {
		panic(err)
	}
	raw := segment.Config{Camera: defaultCam, Threshold: 0.5}
	conditioned := raw
	conditioned.SmoothingAlpha = 0.15
	conditioned.MinSegmentMillis = 3000

	cleanResults, err := segment.Split(raw, cleanSamples)
	if err != nil {
		panic(err)
	}

	noises := []trace.Noise{
		{GPSMeters: 0, CompassDeg: 0},
		{GPSMeters: 1, CompassDeg: 1},
		{GPSMeters: 2.5, CompassDeg: 3},
		{GPSMeters: 5, CompassDeg: 6},
		{GPSMeters: 10, CompassDeg: 12},
	}
	for _, nz := range noises {
		rng := rand.New(rand.NewSource(int64(nz.GPSMeters*10) + 7))
		noisy := nz.Apply(rng, cleanSamples)
		rawResults, err := segment.Split(raw, noisy)
		if err != nil {
			panic(err)
		}
		condResults, err := segment.Split(conditioned, noisy)
		if err != nil {
			panic(err)
		}
		t.AddRow(f1(nz.GPSMeters), f1(nz.CompassDeg),
			fmt.Sprint(len(rawResults)), fmt.Sprint(len(condResults)), fmt.Sprint(len(cleanResults)))
	}
	t.AddNote("Capture: the bike-with-turn scenario (4 clean segments at threshold 0.5). Conditioning: EWMA alpha 0.15 + 3 s minimum segment duration.")
	t.AddNote("Expectation: raw segment counts inflate with noise (each phantom segment costs descriptor bytes and pollutes retrieval); conditioning keeps counts near the clean baseline while still splitting at the genuine turn.")
	return t
}
