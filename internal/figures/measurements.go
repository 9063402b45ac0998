package figures

import (
	"math/rand"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/geotree"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/trace"
)

// TableMeasurements compares the candidate FoV similarity measurements
// the related work proposes — [8]'s viewable-scene *rectangle* model
// (IoU of scene bounding boxes), this paper's closed form (Eq. 10), and
// exact sector overlap by polygon clipping — on per-evaluation cost and
// fidelity to the exact overlap, over the capture-motion pose
// distribution the segmenter operates in. It is the quantified version
// of the paper's claim that its measurement is "far more lightweight
// than ordinary algorithms" at comparable fidelity.
func TableMeasurements(pairs int) *Table {
	if pairs <= 0 {
		pairs = 2000
	}
	t := &Table{
		Title:   "Ablation — similarity measurement variants",
		Columns: []string{"measurement", "ns_per_eval", "corr_vs_exact_overlap"},
	}
	rng := rand.New(rand.NewSource(83))
	base := geo.Point{Lat: 40, Lng: 116.326}
	f1s := make([]fov.FoV, pairs)
	f2s := make([]fov.FoV, pairs)
	for i := 0; i < pairs; i++ {
		theta := rng.Float64() * 360
		f1s[i] = fov.FoV{P: base, Theta: theta}
		f2s[i] = fov.FoV{
			P:     geo.Offset(base, rng.Float64()*360, rng.Float64()*60),
			Theta: theta + (rng.Float64()*2-1)*40,
		}
	}

	measure := func(name string, fn func(fov.FoV, fov.FoV) float64, exact []float64) []float64 {
		vals := make([]float64, pairs)
		start := time.Now()
		for i := 0; i < pairs; i++ {
			vals[i] = fn(f1s[i], f2s[i])
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(pairs)
		corr := "1.000"
		if exact != nil {
			corr = f3(Pearson(vals, exact))
		}
		t.AddRow(name, f1(ns), corr)
		return vals
	}

	exact := measure("exact sector overlap (clipping)", func(a, b fov.FoV) float64 {
		return fov.OverlapSim(defaultCam, a, b)
	}, nil)
	measure("paper Eq. 10 (rotation x translation)", func(a, b fov.FoV) float64 {
		return fov.Sim(defaultCam, a, b)
	}, exact)
	measure("scene-rectangle IoU ([8])", func(a, b fov.FoV) float64 {
		return rectIoU(geotree.SceneRect(defaultCam, a), geotree.SceneRect(defaultCam, b))
	}, exact)
	measure("rotation term only (Eq. 4)", func(a, b fov.FoV) float64 {
		return fov.SimR(defaultCam, geo.AngleDiff(a.Theta, b.Theta))
	}, exact)

	t.AddNote("Pose distribution: capture motion (rotation <= 40 deg, translation <= 60 m), the regime Algorithm 1's anchor comparisons live in.")
	t.AddNote("Reading: against *area* overlap as ground truth, [8]'s rectangle IoU is the most faithful cheap proxy but ~4x slower than Eq. 10; Eq. 10 is cheapest-with-translation because it deliberately scores the shared far-field *view* (high under forward motion) rather than area — the right semantics for segmenting continuous capture (see internal/fov/overlap_test.go). Rotation alone is 10x cheaper still but blind to translation.")
	return t
}

// rectIoU is intersection-over-union of two geographic boxes.
func rectIoU(a, b geo.Rect) float64 {
	iw := minF(a.MaxLng, b.MaxLng) - maxF(a.MinLng, b.MinLng)
	ih := minF(a.MaxLat, b.MaxLat) - maxF(a.MinLat, b.MinLat)
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	areaA := (a.MaxLng - a.MinLng) * (a.MaxLat - a.MinLat)
	areaB := (b.MaxLng - b.MinLng) * (b.MaxLat - b.MinLat)
	return inter / (areaA + areaB - inter)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TableHeterogeneous quantifies what declaring per-device optics (wire
// format v2) buys: a mixed fleet of telephoto, standard, and wide-angle
// devices films staged scenes; retrieval filtered with each device's own
// camera is compared against filtering everything with the deployment
// default. Recall counts a staged witness as found if any of its segments
// is returned for its scene.
func TableHeterogeneous(scenes int) *Table {
	if scenes <= 0 {
		scenes = 60
	}
	t := &Table{
		Title:   "Extension — heterogeneous device optics (wire v2)",
		Columns: []string{"filtering", "witness_recall", "cross_scene_hits_per_query"},
	}
	rng := rand.New(rand.NewSource(85))
	devices := []fov.Camera{
		{HalfAngleDeg: 10, RadiusMeters: 250}, // telephoto
		{HalfAngleDeg: 30, RadiusMeters: 100}, // standard (the default)
		{HalfAngleDeg: 55, RadiusMeters: 35},  // wide angle
	}
	deflt := devices[1]

	// Stage: for each scene, one witness with a random device standing at
	// 70% of *its own* radius, facing the scene (so it genuinely covers
	// it), plus one decoy with the same pose but rotated 180°.
	type staged struct {
		scene   geo.Point
		witness uint64
	}
	var stages []staged
	idx := index.NewRTree()
	id := uint64(1)
	for i := 0; i < scenes; i++ {
		scene := geo.Offset(trace.ScenarioOrigin, rng.Float64()*360, rng.Float64()*2000)
		dev := devices[rng.Intn(len(devices))]
		pos := geo.Offset(scene, rng.Float64()*360, 0.7*dev.RadiusMeters)
		facing := geo.Bearing(pos, scene)
		ts := int64(rng.Intn(3_600_000))
		witness := index.Entry{
			ID: id, Provider: "w", Camera: dev,
			Rep: segment.Representative{
				FoV:         fov.FoV{P: pos, Theta: facing},
				StartMillis: ts, EndMillis: ts + 30_000,
			},
		}
		decoy := witness
		decoy.ID = id + 1
		decoy.Rep.FoV.Theta = geo.NormalizeDeg(facing + 180)
		if err := idx.Insert(witness); err != nil {
			panic(err)
		}
		if err := idx.Insert(decoy); err != nil {
			panic(err)
		}
		stages = append(stages, staged{scene: scene, witness: witness.ID})
		id += 2
	}

	run := func(perDevice bool) (recall, crossPerQuery float64) {
		found, fps := 0, 0
		for _, st := range stages {
			hits, err := query.Search(idx, query.Query{
				StartMillis: 0, EndMillis: 4_000_000,
				Center: st.scene, RadiusMeters: 10,
			}, query.Options{Camera: deflt})
			if err != nil {
				panic(err)
			}
			for _, h := range hits {
				cam := deflt
				if perDevice {
					cam = h.Entry.EffectiveCamera(deflt)
				}
				if !h.Entry.Rep.FoV.CoversCircle(cam, st.scene, 10) {
					continue // what the filter would have dropped
				}
				if h.Entry.ID == st.witness {
					found++
				} else {
					fps++
				}
			}
		}
		return float64(found) / float64(len(stages)), float64(fps) / float64(len(stages))
	}
	// Note: to isolate the camera effect the search reaches every device
	// within r plus its own radius of view, however far it sees, and the
	// orientation filter is applied manually with each policy.
	defRecall, defFP := run(false)
	devRecall, devFP := run(true)
	t.AddRow("deployment default (one camera)", f3(defRecall), f3(defFP))
	t.AddRow("per-device optics (wire v2)", f3(devRecall), f3(devFP))
	t.AddNote("With one deployment-wide camera, telephoto witnesses standing beyond the default 100 m radius are missed (recall loss); per-device optics recover them. Cross-scene hits are other staged cameras that genuinely cover the query under the policy in force, not errors.")
	return t
}
