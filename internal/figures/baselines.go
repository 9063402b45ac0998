package figures

import (
	"fmt"
	"math/rand"
	"time"

	"fovr/internal/contentbase"
	"fovr/internal/cvision"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/geotree"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/render"
	"fovr/internal/segment"
	"fovr/internal/trace"
	"fovr/internal/video"
	"fovr/internal/wire"
	"fovr/internal/world"
)

// TableBaselineGeoTree compares this paper's pipeline (FoV segmentation +
// spatio-temporal index + rank-based retrieval) against the prior-art
// GeoTree/GRVS baseline ([9], implemented in package geotree) on the same
// corpus of capture traces. It quantifies the two Section I criticisms:
// GeoTree stores per-frame-group entries regardless of motion, and it has
// no temporal axis, so time-windowed queries drown in stale hits.
func TableBaselineGeoTree(videos int) *Table {
	if videos <= 0 {
		videos = 60
	}
	t := &Table{
		Title:   "Baseline — FoV pipeline vs GeoTree/GRVS [9]",
		Columns: []string{"system", "index_entries", "descriptor_bytes", "build_ms", "query_us", "temporal_precision"},
	}
	rng := rand.New(rand.NewSource(90))
	segCfg := segment.Config{Camera: defaultCam, Threshold: 0.5}

	// Corpus: each provider walks for 60 s starting at a random moment in
	// a 24 h horizon, within the same few blocks (a popular plaza) — the
	// crowd-sourced shape where many captures of one place at *different
	// times* coexist, which is exactly where a time-blind index drowns.
	horizon := int64(24 * 3600 * 1000)
	ids := make([]string, videos)
	starts := make([]int64, videos)
	all := make([][]fov.Sample, videos)
	for v := 0; v < videos; v++ {
		ids[v] = fmt.Sprintf("prov-%02d", v)
		starts[v] = int64(rng.Float64() * float64(horizon-60_000))
		origin := geo.Offset(trace.ScenarioOrigin, rng.Float64()*360, rng.Float64()*250)
		samples, err := trace.RandomWalk(trace.Config{SampleHz: 10, StartMillis: starts[v]}, rng, origin, 1.4, 6, 60)
		if err != nil {
			panic(err)
		}
		all[v] = samples
	}

	// Queries: spots along the walked paths with a 2-minute window around
	// the walk (so ground truth exists), plus the temporal-precision
	// probe: how many returned items actually overlap the window?
	type probe struct {
		rect   geo.Rect
		q      query.Query
		window [2]int64
	}
	var probes []probe
	for i := 0; i < 50; i++ {
		v := rng.Intn(videos)
		s := all[v][rng.Intn(len(all[v]))]
		center := geo.Offset(s.P, s.Theta, 30) // a spot the camera looked at
		w0 := starts[v] - 60_000
		w1 := starts[v] + 120_000
		probes = append(probes, probe{
			rect:   geo.RectAround(center, 20+defaultCam.RadiusMeters),
			q:      query.Query{StartMillis: w0, EndMillis: w1, Center: center, RadiusMeters: 20},
			window: [2]int64{w0, w1},
		})
	}

	// ---- FoV pipeline ----
	start := time.Now()
	idx := index.NewRTree()
	entries := 0
	bytes := 0
	nextID := uint64(1)
	for v := 0; v < videos; v++ {
		results, err := segment.Split(segCfg, all[v])
		if err != nil {
			panic(err)
		}
		reps := segment.Representatives(results)
		data, err := wire.EncodeBinary(wire.Upload{Provider: ids[v], Reps: reps})
		if err != nil {
			panic(err)
		}
		bytes += len(data)
		for _, rep := range reps {
			if err := idx.Insert(index.Entry{ID: nextID, Provider: ids[v], Rep: rep}); err != nil {
				panic(err)
			}
			nextID++
			entries++
		}
	}
	buildFoV := time.Since(start)

	start = time.Now()
	inWindow, total := 0, 0
	for _, p := range probes {
		hits, err := query.Search(idx, p.q, query.Options{Camera: defaultCam})
		if err != nil {
			panic(err)
		}
		for _, h := range hits {
			total++
			if h.Entry.Rep.EndMillis >= p.window[0] && h.Entry.Rep.StartMillis <= p.window[1] {
				inWindow++
			}
		}
	}
	queryFoV := time.Since(start)
	precFoV := 1.0
	if total > 0 {
		precFoV = float64(inWindow) / float64(total)
	}
	t.AddRow("FoV pipeline (this paper)", fmt.Sprint(entries), fmt.Sprint(bytes),
		f1(float64(buildFoV.Microseconds())/1000),
		f1(float64(queryFoV.Microseconds())/float64(len(probes))), f3(precFoV))

	// ---- GeoTree baseline ----
	start = time.Now()
	gt, err := geotree.New(geotree.Options{Camera: defaultCam, GroupSize: 32})
	if err != nil {
		panic(err)
	}
	for v := 0; v < videos; v++ {
		if err := gt.AddVideo(ids[v], trace.FoVs(all[v])); err != nil {
			panic(err)
		}
	}
	buildGT := time.Since(start)
	// GeoTree stores one scene MBR per group: 4 float64 + range = 40 B.
	gtBytes := gt.Groups() * 40

	start = time.Now()
	gtInWindow, gtTotal := 0, 0
	for _, p := range probes {
		for _, g := range gt.Search(p.rect) {
			gtTotal++
			// Recover the group's capture window from its source video
			// to judge temporal relevance — information GeoTree itself
			// cannot use at query time.
			v := videoIndex(ids, g.VideoID)
			t0 := all[v][g.StartFrame].UnixMillis
			t1 := all[v][g.EndFrame].UnixMillis
			if t1 >= p.window[0] && t0 <= p.window[1] {
				gtInWindow++
			}
		}
	}
	queryGT := time.Since(start)
	precGT := 1.0
	if gtTotal > 0 {
		precGT = float64(gtInWindow) / float64(gtTotal)
	}
	t.AddRow("GeoTree/GRVS [9]", fmt.Sprint(gt.Groups()), fmt.Sprint(gtBytes),
		f1(float64(buildGT.Microseconds())/1000),
		f1(float64(queryGT.Microseconds())/float64(len(probes))), f3(precGT))

	t.AddNote("temporal_precision: fraction of returned items whose capture time actually overlaps the query window. GeoTree has no time axis, so its hits are mostly stale; the FoV index filters them in the tree.")
	t.AddNote("index_entries: GeoTree stores one MBR per %d-frame run regardless of motion; the FoV pipeline stores one representative per *distinct view*.", 32)
	return t
}

func videoIndex(ids []string, id string) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	panic("unknown video id " + id)
}

// TableBaselineContent compares the two architectures of Section I on the
// same corpus: the data-centric content-based pipeline (every frame's
// content descriptor uploaded, queries scan descriptors) versus the
// content-free FoV pipeline (one 20-byte representative per segment,
// queries probe the spatio-temporal index). Content descriptors use the
// block-mean grid — one of the cheapest possible; SIFT-class features
// would only widen every gap.
func TableBaselineContent(videos, frames int) *Table {
	if videos <= 0 {
		videos = 30
	}
	if frames <= 0 {
		frames = 300 // 30 s at 10 Hz per video
	}
	t := &Table{
		Title:   "Baseline — content-based (data-centric) vs content-free (FoV)",
		Columns: []string{"system", "upload_bytes", "stored_units", "query_us", "answers_where_when"},
	}
	rng := rand.New(rand.NewSource(91))
	segCfg := segment.Config{Camera: defaultCam, Threshold: 0.5}
	res := video.Resolution{Name: "cb", W: 160, H: 90}
	r := render.New(world.World{Seed: 91}, render.Camera{HFovDeg: defaultCam.ViewingAngleDeg(), ViewMeters: defaultCam.RadiusMeters})

	// Shared corpus of captures.
	type capture struct {
		id      string
		startMs int64
		samples []fov.Sample
	}
	caps := make([]capture, videos)
	for v := range caps {
		origin := geo.Offset(trace.ScenarioOrigin, rng.Float64()*360, rng.Float64()*400)
		start := int64(rng.Float64() * 3_600_000)
		samples, err := trace.RandomWalk(trace.Config{SampleHz: 10, StartMillis: start}, rng, origin, 1.4, 6, float64(frames-1)/10)
		if err != nil {
			panic(err)
		}
		caps[v] = capture{fmt.Sprintf("vid-%02d", v), start, samples}
	}

	// ---- content-based arm ----
	store := contentbase.NewStore()
	frame := res.New()
	for _, c := range caps {
		descs := make([]cvision.BlockMean, len(c.samples))
		for i, s := range c.samples {
			r.Render(render.PoseFromGeo(trace.ScenarioOrigin, s.P, s.Theta), frame)
			descs[i] = cvision.ExtractBlockMean(frame)
		}
		if err := store.AddVideo("p", c.id, c.startMs, 100, descs); err != nil {
			panic(err)
		}
	}
	// Queries: exemplar frames re-rendered from known poses.
	exemplars := make([]cvision.BlockMean, 20)
	for i := range exemplars {
		c := caps[rng.Intn(len(caps))]
		s := c.samples[rng.Intn(len(c.samples))]
		r.Render(render.PoseFromGeo(trace.ScenarioOrigin, s.P, s.Theta), frame)
		exemplars[i] = cvision.ExtractBlockMean(frame)
	}
	start := time.Now()
	for _, ex := range exemplars {
		store.Query(ex, 0, 4_000_000, 10)
	}
	cbQueryUS := float64(time.Since(start).Microseconds()) / float64(len(exemplars))
	t.AddRow("content-based (block-mean/frame)",
		fmt.Sprint(store.UploadedBytes()), fmt.Sprintf("%d frames", store.Len()),
		f1(cbQueryUS), "no (content only)")

	// ---- FoV arm ----
	idx := index.NewRTree()
	fovBytes := 0
	nextID := uint64(1)
	for _, c := range caps {
		results, err := segment.Split(segCfg, c.samples)
		if err != nil {
			panic(err)
		}
		reps := segment.Representatives(results)
		data, err := wire.EncodeBinary(wire.Upload{Provider: "p", Reps: reps})
		if err != nil {
			panic(err)
		}
		fovBytes += len(data)
		for _, rep := range reps {
			if err := idx.Insert(index.Entry{ID: nextID, Provider: "p", Rep: rep}); err != nil {
				panic(err)
			}
			nextID++
		}
	}
	qs := make([]query.Query, 20)
	for i := range qs {
		c := caps[rng.Intn(len(caps))]
		s := c.samples[rng.Intn(len(c.samples))]
		qs[i] = query.Query{
			StartMillis:  c.startMs - 30_000,
			EndMillis:    c.startMs + 60_000,
			Center:       geo.Offset(s.P, s.Theta, 30),
			RadiusMeters: 20,
		}
	}
	start = time.Now()
	for _, q := range qs {
		if _, err := query.Search(idx, q, query.Options{Camera: defaultCam, MaxResults: 10}); err != nil {
			panic(err)
		}
	}
	fovQueryUS := float64(time.Since(start).Microseconds()) / float64(len(qs))
	t.AddRow("content-free FoV (this paper)",
		fmt.Sprint(fovBytes), fmt.Sprintf("%d segments", idx.Len()),
		f1(fovQueryUS), "yes (place + time)")

	t.AddNote("Corpus: %d captures x %d frames. The content-based store cannot answer where/when queries at all; its query is \"find frames that look like this exemplar\", at a full scan per query.", videos, frames)
	t.AddNote("Upload ratio: %.0fx more bytes for the cheapest per-frame content descriptor.", float64(store.UploadedBytes())/float64(fovBytes))
	return t
}
