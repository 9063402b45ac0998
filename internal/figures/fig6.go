package figures

import (
	"fmt"
	"math"
	"time"

	"fovr/internal/cvision"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/render"
	"fovr/internal/segment"
	"fovr/internal/trace"
	"fovr/internal/video"
	"fovr/internal/workload"
	"fovr/internal/world"
)

// Fig6a regenerates Fig. 6(a): wall-clock cost of segmenting the same
// capture with the CV baseline (frame differencing over pixels, cost
// scaling with resolution) versus the FoV segmenter (resolution-
// independent). frameCount controls the clip length; the paper used
// full-length videos, but per-frame costs are what the figure compares.
func Fig6a(frameCount int) *Table {
	if frameCount <= 0 {
		frameCount = 60
	}
	t := &Table{
		Title:   "Fig. 6(a) — Video segmentation cost by resolution",
		Columns: []string{"resolution", "frames", "cv_us_per_frame", "fov_us_per_frame", "speedup"},
	}
	// One shared trace drives both arms.
	cfg := trace.Config{SampleHz: 10}
	samples, err := trace.RotateInPlace(cfg, trace.ScenarioOrigin, 0, 12, float64(frameCount-1)/cfg.SampleHz)
	if err != nil {
		panic(err)
	}
	samples = samples[:frameCount]
	segCfg := segment.Config{Camera: defaultCam, Threshold: 0.5}

	// FoV arm: resolution-independent, measured once with enough
	// repetitions to resolve the sub-microsecond per-frame cost.
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := segment.Split(segCfg, samples); err != nil {
			panic(err)
		}
	}
	fovPerFrame := float64(time.Since(start).Microseconds()) / float64(reps*frameCount)

	r := render.New(world.World{Seed: 6}, render.Camera{HFovDeg: defaultCam.ViewingAngleDeg(), ViewMeters: defaultCam.RadiusMeters})
	poses := make([]render.Pose, len(samples))
	for i, s := range samples {
		poses[i] = render.PoseFromGeo(trace.ScenarioOrigin, s.P, s.Theta)
	}
	for _, res := range video.Resolutions {
		frames := r.RenderSequence(poses, res)
		start := time.Now()
		if _, err := cvision.SegmentByDiff(frames, 0.8); err != nil {
			panic(err)
		}
		cvPerFrame := float64(time.Since(start).Microseconds()) / float64(frameCount)
		t.AddRow(res.Name, fmt.Sprint(frameCount), f1(cvPerFrame), f3(fovPerFrame),
			fmt.Sprintf("%.0fx", cvPerFrame/fovPerFrame))
	}
	t.AddNote("Expectation (paper): CV cost grows with resolution; FoV segmentation is resolution-independent and >= 3 orders of magnitude faster at high resolutions.")
	return t
}

// fig6bBuilds is how many fresh indexes Fig6b builds per size; the
// fastest is reported, so one build slowed by a busy machine or a
// collection of the previous build's garbage does not shape the curve.
const fig6bBuilds = 3

// Fig6b regenerates Fig. 6(b): time to set up the index as a function of
// the number of representative FoV records. The paper reports <= 20 s
// for 20,000 records on a laptop (per-record milliseconds).
func Fig6b(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 5000, 10000, 20000, 50000}
	}
	t := &Table{
		Title:   "Fig. 6(b) — Index setup time vs record count",
		Columns: []string{"records", "total_ms", "us_per_insert"},
	}
	maxN := sizes[len(sizes)-1]
	entries := workload.Entries(workload.Config{Seed: 60}, maxN)
	for _, n := range sizes {
		best := time.Duration(math.MaxInt64)
		for range fig6bBuilds {
			idx := index.NewRTree()
			start := time.Now()
			for _, e := range entries[:n] {
				if err := idx.Insert(e); err != nil {
					panic(err)
				}
			}
			best = min(best, time.Since(start))
		}
		t.AddRow(fmt.Sprint(n),
			f1(float64(best.Microseconds())/1000),
			f3(float64(best.Microseconds())/float64(n)))
	}
	t.AddNote("Each size is the fastest of %d fresh builds.", fig6bBuilds)
	t.AddNote("Expectation (paper): ~linear growth; 20,000 records insert in well under 20 s (they measured <=20 s on a 2013 laptop).")
	return t
}

// Fig6c regenerates Fig. 6(c): retrieval latency of the R-tree index
// versus the naive linear scan as the dataset grows, including the
// abstract's <100 ms claim at tens of thousands of segments.
func Fig6c(sizes []int, queriesPerSize int) *Table {
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 5000, 10000, 20000, 50000}
	}
	if queriesPerSize <= 0 {
		queriesPerSize = 200
	}
	t := &Table{
		Title:   "Fig. 6(c) — Search latency: R-tree vs linear scan",
		Columns: []string{"records", "rtree_us_per_query", "linear_us_per_query", "rtree_speedup"},
	}
	maxN := sizes[len(sizes)-1]
	cfg := workload.Config{Seed: 61}
	entries := workload.Entries(cfg, maxN)
	queries := workload.Queries(cfg, queriesPerSize, 50, 3_600_000)
	opts := query.Options{Camera: defaultCam, MaxResults: 10}

	worstRTree := 0.0
	for _, n := range sizes {
		rt, lin := index.NewRTree(), index.NewLinear()
		for _, e := range entries[:n] {
			for _, idx := range []index.Index{rt, lin} {
				if err := idx.Insert(e); err != nil {
					panic(err)
				}
			}
		}
		timeIt := func(idx index.Index) float64 {
			start := time.Now()
			for _, q := range queries {
				if _, err := query.Search(idx, q, opts); err != nil {
					panic(err)
				}
			}
			return float64(time.Since(start).Microseconds()) / float64(len(queries))
		}
		rtUS := timeIt(rt)
		linUS := timeIt(lin)
		if rtUS > worstRTree {
			worstRTree = rtUS
		}
		t.AddRow(fmt.Sprint(n), f1(rtUS), f1(linUS), fmt.Sprintf("%.1fx", linUS/rtUS))
	}
	t.AddNote("Worst R-tree latency observed: %.1f us/query — the abstract's <100 ms bound holds with ~3 orders of magnitude to spare.", worstRTree)
	t.AddNote("Expectation (paper): comparable at small N, R-tree increasingly ahead as N grows.")
	return t
}
