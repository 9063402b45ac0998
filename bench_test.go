// Benchmarks, one (or more) per figure and table of the paper's
// evaluation. cmd/fovbench regenerates the figures as tables with
// absolute numbers; these testing.B benches expose the same code paths
// to `go test -bench` for profiling and regression tracking.
package fovr_test

import (
	"math"
	"math/rand"
	"testing"

	"fovr/internal/cvision"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/geotree"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/render"
	"fovr/internal/replay"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/trace"
	"fovr/internal/utility"
	"fovr/internal/video"
	"fovr/internal/wire"
	"fovr/internal/workload"
	"fovr/internal/world"
)

var benchCam = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

// BenchmarkFig3TranslationModel measures one evaluation of the
// theoretical translation similarity pair (Fig. 3).
func BenchmarkFig3TranslationModel(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		d := float64(i%250) + 0.5
		sink += fov.SimParallel(benchCam, d) + fov.SimPerp(benchCam, d)
	}
	_ = sink
}

// BenchmarkFig4PracticalSimilarity measures the full FoV similarity
// (Eq. 10) on noisy sensor pairs — the per-frame cost of the practical
// curve in Fig. 4.
func BenchmarkFig4PracticalSimilarity(b *testing.B) {
	samples, err := trace.WalkAhead(trace.DefaultConfig)
	if err != nil {
		b.Fatal(err)
	}
	noisy := trace.DefaultNoise.Apply(rand.New(rand.NewSource(1)), samples)
	ref := noisy[0].FoV()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fov.Sim(benchCam, ref, noisy[i%len(noisy)].FoV())
	}
	_ = sink
}

// BenchmarkFig5MatrixFoV builds the 61x61 FoV similarity matrix of the
// Fig. 5 rotation scenario.
func BenchmarkFig5MatrixFoV(b *testing.B) {
	samples, err := trace.Rotation(trace.Config{SampleHz: 1})
	if err != nil {
		b.Fatal(err)
	}
	fovs := trace.FoVs(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fov.Matrix(benchCam, fovs)
	}
}

// BenchmarkFig5MatrixCV builds the matching frame-differencing matrix on
// rendered frames — the content-based cost Fig. 5 compares against.
func BenchmarkFig5MatrixCV(b *testing.B) {
	samples, err := trace.Rotation(trace.Config{SampleHz: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := render.New(world.Default, render.DefaultCamera)
	poses := make([]render.Pose, len(samples))
	for i, s := range samples {
		poses[i] = render.PoseFromGeo(trace.ScenarioOrigin, s.P, s.Theta)
	}
	frames := r.RenderSequence(poses, video.Resolution{Name: "bench", W: 320, H: 180})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cvision.Matrix(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aSegmentationFoV measures Algorithm 1 per frame — the
// resolution-independent arm of Fig. 6(a).
func BenchmarkFig6aSegmentationFoV(b *testing.B) {
	samples, err := trace.BikeWithTurn(trace.Config{SampleHz: 10})
	if err != nil {
		b.Fatal(err)
	}
	cfg := segment.Config{Camera: benchCam, Threshold: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segment.Split(cfg, samples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/frame")
}

func benchSegmentationCV(b *testing.B, res video.Resolution) {
	samples, err := trace.RotateInPlace(trace.Config{SampleHz: 10}, trace.ScenarioOrigin, 0, 12, 3)
	if err != nil {
		b.Fatal(err)
	}
	r := render.New(world.Default, render.DefaultCamera)
	poses := make([]render.Pose, len(samples))
	for i, s := range samples {
		poses[i] = render.PoseFromGeo(trace.ScenarioOrigin, s.P, s.Theta)
	}
	frames := r.RenderSequence(poses, res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cvision.SegmentByDiff(frames, 0.8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
}

// BenchmarkFig6aSegmentationCV240p / 1080p are the content-based arm of
// Fig. 6(a) at the sweep extremes.
func BenchmarkFig6aSegmentationCV240p(b *testing.B)  { benchSegmentationCV(b, video.R240) }
func BenchmarkFig6aSegmentationCV1080p(b *testing.B) { benchSegmentationCV(b, video.R1080) }

// BenchmarkFig6bIndexInsert measures one representative-FoV insertion
// into the R-tree index (Fig. 6(b)).
func BenchmarkFig6bIndexInsert(b *testing.B) {
	entries := workload.Entries(workload.Config{Seed: 1}, 50000)
	idx := index.NewRTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		e.ID = uint64(i + 1)
		if err := idx.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestBatch loads the end-to-end benchmark's corpus into a
// fresh serving index the way uploads load it: 200 000 hotspot entries,
// 20 per InsertBatch. No reader looks between batches, so no batch
// publishes. One op is the whole load.
func BenchmarkIngestBatch(b *testing.B) { benchIngestBatch(b, false) }

// BenchmarkIngestBatchReadEach is BenchmarkIngestBatch with one Visit
// around the batch's first entry between batches: a reader looks before
// every batch, so every batch publishes, as uploads do while reads flow.
func BenchmarkIngestBatchReadEach(b *testing.B) { benchIngestBatch(b, true) }

func benchIngestBatch(b *testing.B, readEach bool) {
	const n = 200_000
	entries := workload.Entries(workload.Config{Seed: 1, Distribution: workload.Hotspot}, n)
	visit := func(*index.Entry) float64 { return math.Inf(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := index.NewRTree()
		for j := 0; j < n; j += 20 {
			if readEach {
				rep := &entries[j].Rep
				idx.Visit(rep.FoV.P, 10, 0, rep.StartMillis, rep.EndMillis, visit)
			}
			if err := idx.InsertBatch(entries[j:min(j+20, n)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}

func benchSearch(b *testing.B, makeIdx func([]index.Entry) index.Index) {
	cfg := workload.Config{Seed: 2}
	entries := workload.Entries(cfg, 20000)
	idx := makeIdx(entries)
	queries := workload.Queries(cfg, 512, 50, 3_600_000)
	opts := query.Options{Camera: benchCam, MaxResults: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Search(idx, queries[i%len(queries)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6cSearchRTree / SearchLinear measure one retrieval over
// 20,000 indexed segments with each index (Fig. 6(c)).
func BenchmarkFig6cSearchRTree(b *testing.B) {
	benchSearch(b, func(entries []index.Entry) index.Index {
		return bulkLoad(b, entries)
	})
}

// bulkLoad STR-packs entries into an R-tree index.
func bulkLoad(b *testing.B, entries []index.Entry) *index.RTree {
	b.Helper()
	idx, err := index.BulkLoadRTree(benchCam.RadiusMeters, len(entries), func(add func(*index.Entry) error) error {
		for i := range entries {
			if err := add(&entries[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func BenchmarkFig6cSearchLinear(b *testing.B) {
	benchSearch(b, func(entries []index.Entry) index.Index {
		idx := index.NewLinear()
		for _, e := range entries {
			if err := idx.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
		return idx
	})
}

// BenchmarkFig6cSearchRTreeParallel exercises the many-inquirers case:
// concurrent queries against the shared index.
func BenchmarkFig6cSearchRTreeParallel(b *testing.B) {
	cfg := workload.Config{Seed: 2}
	entries := workload.Entries(cfg, 20000)
	idx := bulkLoad(b, entries)
	queries := workload.Queries(cfg, 512, 50, 3_600_000)
	opts := query.Options{Camera: benchCam, MaxResults: 10}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := query.Search(idx, queries[i%len(queries)], opts); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkTableDescriptorEncode / Decode measure the wire codec behind
// the traffic table.
func BenchmarkTableDescriptorEncode(b *testing.B) {
	u := benchUpload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeBinary(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableDescriptorDecode(b *testing.B) {
	data, err := wire.EncodeBinary(benchUpload())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUpload() wire.Upload {
	samples, err := trace.BikeWithTurn(trace.Config{SampleHz: 10})
	if err != nil {
		panic(err)
	}
	results, err := segment.Split(segment.Config{Camera: benchCam, Threshold: 0.5}, samples)
	if err != nil {
		panic(err)
	}
	return wire.Upload{Provider: "bench", Reps: segment.Representatives(results)}
}

// BenchmarkTableUtilityGreedy measures one budgeted greedy selection over
// 100 candidate segments (Section VII study).
func BenchmarkTableUtilityGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	win := utility.Window{StartMillis: 0, EndMillis: 600_000}
	var cands []utility.Candidate
	for i := 0; i < 100; i++ {
		start := int64(rng.Intn(500_000))
		cands = append(cands, utility.Candidate{
			ID: uint64(i + 1),
			Rep: segment.Representative{
				FoV:         fov.FoV{P: trace.ScenarioOrigin, Theta: rng.Float64() * 360},
				StartMillis: start,
				EndMillis:   start + int64(10_000+rng.Intn(60_000)),
			},
			Cost: 1 + rng.Float64()*9,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := utility.GreedyBudget(benchCam, win, cands, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation* compare the two index construction strategies,
// insertion with the R* split and STR bulk loading, on the same
// 5,000-entry dataset (design-choice ablation from DESIGN.md).
func benchBuild(b *testing.B, build func([]index.Entry)) {
	entries := workload.Entries(workload.Config{Seed: 4}, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(entries)
	}
}

func BenchmarkAblationBuildInsertRStar(b *testing.B) {
	benchBuild(b, func(entries []index.Entry) {
		idx := index.NewRTree()
		for _, e := range entries {
			if err := idx.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationBuildBulkSTR(b *testing.B) {
	benchBuild(b, func(entries []index.Entry) {
		bulkLoad(b, entries)
	})
}

// BenchmarkSegmenterPush measures the O(1) per-frame claim of the
// streaming segmenter in isolation.
func BenchmarkSegmenterPush(b *testing.B) {
	samples, err := trace.BikeWithTurn(trace.Config{SampleHz: 10})
	if err != nil {
		b.Fatal(err)
	}
	sg, err := segment.NewSegmenter(segment.Config{Camera: benchCam, Threshold: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		s.UnixMillis = int64(i) * 100 // keep time monotone across wraps
		if _, err := sg.Push(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderFrame480p measures the synthetic-frame substrate itself,
// so the CV-arm numbers can be decomposed.
func BenchmarkRenderFrame480p(b *testing.B) {
	r := render.New(world.Default, render.DefaultCamera)
	f := video.R480.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(render.Pose{AzimuthDeg: float64(i % 360)}, f)
	}
}

// BenchmarkFig5MatrixCVParallel is the worker-pool version of the CV
// matrix — the HPC path the figure harness uses.
func BenchmarkFig5MatrixCVParallel(b *testing.B) {
	samples, err := trace.Rotation(trace.Config{SampleHz: 1})
	if err != nil {
		b.Fatal(err)
	}
	poses := make([]render.Pose, len(samples))
	for i, s := range samples {
		poses[i] = render.PoseFromGeo(trace.ScenarioOrigin, s.P, s.Theta)
	}
	frames := render.RenderSequenceParallel(world.Default, render.DefaultCamera, poses,
		video.Resolution{Name: "bench", W: 320, H: 180}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cvision.MatrixParallel(frames, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderSequenceParallel measures the parallel renderer fan-out.
func BenchmarkRenderSequenceParallel(b *testing.B) {
	poses := make([]render.Pose, 64)
	for i := range poses {
		poses[i] = render.Pose{East: float64(i), AzimuthDeg: float64(i * 5)}
	}
	res := video.Resolution{Name: "bench", W: 320, H: 180}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.RenderSequenceParallel(world.Default, render.DefaultCamera, poses, res, 0)
	}
}

// BenchmarkGeoTreeSearch measures the prior-art baseline's query path.
func BenchmarkGeoTreeSearch(b *testing.B) {
	gt, err := geotree.New(geotree.Options{Camera: benchCam, GroupSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for v := 0; v < 50; v++ {
		start := geo.Offset(trace.ScenarioOrigin, rng.Float64()*360, rng.Float64()*1000)
		samples, err := trace.RandomWalk(trace.Config{SampleHz: 10}, rng, start, 1.4, 6, 60)
		if err != nil {
			b.Fatal(err)
		}
		if err := gt.AddVideo(string(rune('a'+v%26))+string(rune('0'+v/26)), trace.FoVs(samples)); err != nil {
			b.Fatal(err)
		}
	}
	rects := make([]geo.Rect, 64)
	for i := range rects {
		c := geo.Offset(trace.ScenarioOrigin, rng.Float64()*360, rng.Float64()*1000)
		rects[i] = geo.RectAround(c, 120)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gt.Search(rects[i%len(rects)])
	}
}

// BenchmarkSnapshotWrite measures the persistence path at 20k
// segments: encoding them as one image, as a checkpoint does.
func BenchmarkSnapshotWrite(b *testing.B) {
	entries := workload.Entries(workload.Config{Seed: 6}, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.EncodeSegment(0, entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore times the boot path: decoding an image of
// 20,000 entries and STR bulk-loading the index from it.
func BenchmarkSnapshotRestore(b *testing.B) {
	entries := workload.Entries(workload.Config{Seed: 6}, 20000)
	data, _, err := store.EncodeSegment(0, entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, decoded, err := store.DecodeSegment(data)
		if err != nil {
			b.Fatal(err)
		}
		bulkLoad(b, decoded)
	}
}

// BenchmarkSearchNearest measures the radius-free retrieval: the top-k
// query at radius 0.
func BenchmarkSearchNearest(b *testing.B) {
	cfg := workload.Config{Seed: 7}
	entries := workload.Entries(cfg, 20000)
	idx := bulkLoad(b, entries)
	rng := rand.New(rand.NewSource(8))
	centers := make([]geo.Point, 128)
	for i := range centers {
		centers[i] = geo.Offset(workload.DefaultConfig.Center, rng.Float64()*360, rng.Float64()*3000)
	}
	opts := query.Options{Camera: benchCam}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.SearchNearest(idx, centers[i%len(centers)], 0, 86_400_000, 10, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTopN measures the ranked retrieval (top 20) in process
// on a 200 000-camera hotspot city, for the three question shapes of the
// end-to-end benchmark in bench/: point (30 m, 1 h), scan (300 m, the
// whole day — thousands of cameras in the box inside a hotspot) and wide
// (30 m, 12 h).
func BenchmarkQueryTopN(b *testing.B) {
	cfg := workload.Config{Seed: 1, Distribution: workload.Hotspot}
	tree := index.NewRTree()
	if err := tree.InsertBatch(workload.Entries(cfg, 200_000)); err != nil {
		b.Fatal(err)
	}
	const hour = 3_600_000
	shapes := []struct {
		name   string
		radius float64
		window int64
	}{{"point", 30, hour}, {"scan", 300, 24 * hour}, {"wide", 30, 12 * hour}}
	opts := query.Options{Camera: benchCam, MaxResults: 20}
	for _, sh := range shapes {
		qs := workload.Queries(cfg, 2048, sh.radius, sh.window)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Search(tree, qs[i%len(qs)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactOverlapSim measures the polygon-clipping measurement the
// measurement ablation compares Eq. 10 against.
func BenchmarkExactOverlapSim(b *testing.B) {
	p := trace.ScenarioOrigin
	f1 := fov.FoV{P: p, Theta: 10}
	f2 := fov.FoV{P: geo.Offset(p, 70, 40), Theta: 35}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fov.OverlapSim(benchCam, f1, f2)
	}
	_ = sink
}

// BenchmarkLocalFeatureExtraction measures the SIFT-class descriptor cost
// (the heaviest row of the traffic table).
func BenchmarkLocalFeatureExtraction(b *testing.B) {
	r := render.New(world.Default, render.DefaultCamera)
	f := video.R480.New()
	r.Render(render.Pose{}, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cvision.ExtractFeatures(f, 128)
	}
}

// BenchmarkReplaySmallCity measures one full system replay (ingest +
// queries) at 50 providers.
func BenchmarkReplaySmallCity(b *testing.B) {
	cfg := replay.DefaultConfig
	cfg.Providers = 50
	cfg.Queries = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := replay.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
