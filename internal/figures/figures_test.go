package figures

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tab.Columns)
	return ""
}

func cellF(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tab, row, col), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %d/%s = %q not numeric: %v", row, col, cell(t, tab, row, col), err)
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3()
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	for i := range tab.Rows {
		sp := cellF(t, tab, i, "sim_parallel")
		sv := cellF(t, tab, i, "sim_perp")
		d := cellF(t, tab, i, "d_m")
		if sp < sv {
			t.Fatalf("row %d: Sim_parallel %v < Sim_perp %v (Eq. 8 violated)", i, sp, sv)
		}
		if sp <= 0 {
			t.Fatalf("row %d: Sim_parallel nonpositive", i)
		}
		r := cellF(t, tab, i, "R_m")
		if d >= 2*r*0.5 && sv != 0 { // 2R sin(30°) = R
			t.Fatalf("row %d: Sim_perp %v nonzero beyond its zero distance", i, sv)
		}
	}
}

func TestFig4Correlations(t *testing.T) {
	tab := Fig4()
	if len(tab.Rows) == 0 || len(tab.Notes) < 3 {
		t.Fatalf("table incomplete: %d rows %d notes", len(tab.Rows), len(tab.Notes))
	}
	// Theory and practical similarity must track closely despite sensor
	// noise; CV must correlate positively over the informative prefix.
	for _, n := range tab.Notes[:2] {
		var tp, tc, pc float64
		if _, err := parseCorrNote(n, &tp, &tc, &pc); err != nil {
			t.Fatalf("unparsable note %q: %v", n, err)
		}
		if tp < 0.9 {
			t.Errorf("theory/practical correlation %v < 0.9 in %q", tp, n)
		}
		if tc < 0.5 || pc < 0.5 {
			t.Errorf("CV correlations too weak in %q", n)
		}
	}
	// The theory column for the parallel case must stay above the
	// perpendicular case at matching distances.
	var par, perp []float64
	for i := range tab.Rows {
		switch {
		case strings.HasPrefix(cell(t, tab, i, "case"), "theta_p=0"):
			par = append(par, cellF(t, tab, i, "theory"))
		case strings.HasPrefix(cell(t, tab, i, "case"), "theta_p=90"):
			perp = append(perp, cellF(t, tab, i, "theory"))
		}
	}
	if len(par) == 0 || len(par) != len(perp) {
		t.Fatalf("case rows uneven: %d vs %d", len(par), len(perp))
	}
	for i := range par {
		if par[i] < perp[i] {
			t.Fatalf("row %d: parallel theory %v below perpendicular %v", i, par[i], perp[i])
		}
	}
}

func parseCorrNote(n string, tp, tc, pc *float64) (int, error) {
	i := strings.Index(n, "corr(theory, practical)=")
	return fmtSscanf(n[i:], "corr(theory, practical)=%f corr(theory, cv)=%f corr(practical, cv)=%f", tp, tc, pc)
}

func TestFig5Agreement(t *testing.T) {
	tab := Fig5()
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d scenario rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		// Pattern agreement: pairs the FoV measure calls similar must
		// look more alike to frame differencing than pairs it calls
		// dissimilar, monotonically across buckets.
		lo := cellF(t, tab, i, "cv_mean_fovlo")
		mid := cellF(t, tab, i, "cv_mean_fovmid")
		hi := cellF(t, tab, i, "cv_mean_fovhi")
		// Strongly-FoV-similar pairs must clearly look more alike to the
		// CV measure than weakly-similar or non-overlapping pairs. (lo
		// vs mid is not asserted: both are dominated by content noise.)
		if !(hi > mid && hi > lo) {
			t.Errorf("scenario %q: CV bucket means don't separate: lo=%v mid=%v hi=%v",
				cell(t, tab, i, "scenario"), lo, mid, hi)
		}
		if corr := cellF(t, tab, i, "corr_fov_cv"); corr <= 0 {
			t.Errorf("scenario %q: FoV/CV matrix correlation %v not positive",
				cell(t, tab, i, "scenario"), corr)
		}
	}
	// The bike quadrant note must show dissimilar off-diagonal blocks.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "bike quadrant means (FoV)") {
			found = true
			var prePre, postPost, prePost float64
			if _, err := fmtSscanf(n[strings.Index(n, "pre-pre="):],
				"pre-pre=%f post-post=%f pre-post=%f", &prePre, &postPost, &prePost); err != nil {
				t.Fatalf("unparsable note %q: %v", n, err)
			}
			if prePost >= prePre || prePost >= postPost {
				t.Errorf("four-block pattern missing: pre-post %v not below diag blocks %v/%v",
					prePost, prePre, postPost)
			}
			if prePost > 0.05 {
				t.Errorf("pre/post-turn FoVs should be almost fully dissimilar, got %v", prePost)
			}
		}
	}
	if !found {
		t.Fatal("bike quadrant note missing")
	}
}

func TestFig6aSpeedupShape(t *testing.T) {
	tab := Fig6a(20)
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d resolution rows", len(tab.Rows))
	}
	prevCV := 0.0
	for i := range tab.Rows {
		cv := cellF(t, tab, i, "cv_us_per_frame")
		fo := cellF(t, tab, i, "fov_us_per_frame")
		if cv <= fo {
			t.Fatalf("row %d: CV %v not slower than FoV %v", i, cv, fo)
		}
		if i == len(tab.Rows)-1 { // 1080p
			if cv/fo < 1000 {
				t.Errorf("1080p speedup %vx below 3 orders of magnitude", cv/fo)
			}
		}
		if i > 0 && cv < prevCV/2 {
			t.Errorf("CV cost not growing with resolution: %v after %v", cv, prevCV)
		}
		prevCV = cv
	}
}

func TestFig6bLinearGrowth(t *testing.T) {
	tab := Fig6b([]int{500, 1000, 2000})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		per := cellF(t, tab, i, "us_per_insert")
		if per <= 0 || per > 1000 {
			t.Fatalf("row %d: %v us/insert implausible (paper: ~milliseconds on 2013 hardware)", i, per)
		}
	}
}

func TestFig6cRTreeWins(t *testing.T) {
	// Each cell is the minimum over three runs: a timing inflated by a
	// busy machine in one run does not decide the shape checks.
	var tabs [3]*Table
	for i := range tabs {
		tabs[i] = Fig6c([]int{1000, 5000, 20000}, 50)
		if len(tabs[i].Rows) != 3 {
			t.Fatalf("rows %d", len(tabs[i].Rows))
		}
	}
	best := func(row int, col string) float64 {
		v := cellF(t, tabs[0], row, col)
		for _, tab := range tabs[1:] {
			v = math.Min(v, cellF(t, tab, row, col))
		}
		return v
	}
	last := len(tabs[0].Rows) - 1
	rt := best(last, "rtree_us_per_query")
	lin := best(last, "linear_us_per_query")
	if lin <= rt {
		t.Fatalf("at 20k records linear (%v us) must be slower than R-tree (%v us)", lin, rt)
	}
	if rt > 100_000 {
		t.Fatalf("R-tree query %v us violates the <100 ms claim", rt)
	}
	// The gap must widen with N (who-wins shape of Fig. 6(c)).
	gapSmall := best(0, "linear_us_per_query") / best(0, "rtree_us_per_query")
	gapLarge := lin / rt
	if gapLarge <= gapSmall {
		t.Errorf("R-tree advantage not growing: %vx -> %vx", gapSmall, gapLarge)
	}
}

func TestTableTraffic(t *testing.T) {
	tab := TableTraffic()
	if len(tab.Rows) < 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	fovBytes := cellF(t, tab, 0, "bytes_per_unit")
	if fovBytes > 32 {
		t.Fatalf("FoV descriptor %v bytes/segment; expected ~20", fovBytes)
	}
	// Raw frame row must dwarf every descriptor.
	var rawFrame float64
	for i := range tab.Rows {
		if strings.HasPrefix(cell(t, tab, i, "descriptor"), "raw frame") {
			rawFrame = cellF(t, tab, i, "bytes_per_unit")
		}
	}
	if rawFrame < 100_000 {
		t.Fatalf("raw frame size %v implausible", rawFrame)
	}
}

func TestTableUtilityOrdering(t *testing.T) {
	tab := TableUtility()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	greedy := cellF(t, tab, 0, "utility_pct_of_global")
	online := cellF(t, tab, 1, "utility_pct_of_global")
	random := cellF(t, tab, 2, "utility_pct_of_global")
	if !(greedy >= online) {
		t.Errorf("greedy %v%% not >= online %v%%", greedy, online)
	}
	if !(greedy > random) {
		t.Errorf("greedy %v%% not above random %v%%", greedy, random)
	}
	for i := 0; i < 3; i++ {
		if spent := cellF(t, tab, i, "spent"); spent > 50 {
			t.Errorf("row %d overspent the budget: %v", i, spent)
		}
	}
}

func TestAblationTables(t *testing.T) {
	idx := TableAblationIndex(3000, 40)
	if len(idx.Rows) != 2 {
		t.Fatalf("index ablation rows %d", len(idx.Rows))
	}
	// STR bulk must build faster than R* insertion.
	bulk := cellF(t, idx, 1, "build_ms")
	insert := cellF(t, idx, 0, "build_ms")
	if bulk >= insert {
		t.Errorf("STR build %v ms not faster than R* insert %v ms", bulk, insert)
	}

	th := TableAblationThreshold()
	prev := 0.0
	for i := range th.Rows {
		segs := cellF(t, th, i, "segments")
		if segs < prev {
			t.Fatalf("threshold sweep not monotone: %v after %v", segs, prev)
		}
		prev = segs
	}

	or := TableAblationOrientation(2000, 40)
	withPrec := cellF(t, or, 0, "precision")
	withoutPrec := cellF(t, or, 1, "precision")
	if withPrec < withoutPrec {
		t.Errorf("orientation filter reduced precision: %v vs %v", withPrec, withoutPrec)
	}
	if withPrec < 0.99 {
		t.Errorf("filtered precision %v should be ~1 against geometric ground truth", withPrec)
	}

	ab := TableAblationAbstraction()
	arith := cellF(t, ab, 0, "max_theta_error_deg")
	circ := cellF(t, ab, 1, "max_theta_error_deg")
	if circ > 1 {
		t.Errorf("circular mean error %v should be ~0", circ)
	}
	if arith <= circ {
		t.Errorf("arithmetic mean error %v not worse than circular %v on wrap", arith, circ)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 5)
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "# note 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("CSV wrong:\n%s", csv)
	}
}

// fmtSscanf avoids importing fmt at top-of-file diff churn.
func fmtSscanf(s, format string, args ...any) (int, error) {
	return fmt.Sscanf(s, format, args...)
}

func TestTableBaselineGeoTree(t *testing.T) {
	tab := TableBaselineGeoTree(20)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	fovEntries := cellF(t, tab, 0, "index_entries")
	gtEntries := cellF(t, tab, 1, "index_entries")
	if fovEntries >= gtEntries {
		t.Errorf("FoV pipeline should index far fewer entries: %v vs %v", fovEntries, gtEntries)
	}
	fovPrec := cellF(t, tab, 0, "temporal_precision")
	gtPrec := cellF(t, tab, 1, "temporal_precision")
	if fovPrec < 0.99 {
		t.Errorf("FoV temporal precision %v should be ~1 (the tree filters time)", fovPrec)
	}
	if gtPrec >= fovPrec {
		t.Errorf("GeoTree temporal precision %v should be below FoV %v", gtPrec, fovPrec)
	}
	if gtPrec > 0.6 {
		t.Errorf("GeoTree precision %v suspiciously high for a 24 h horizon", gtPrec)
	}
}

func TestTableBaselineContent(t *testing.T) {
	tab := TableBaselineContent(8, 100)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	cbBytes := cellF(t, tab, 0, "upload_bytes")
	fovBytes := cellF(t, tab, 1, "upload_bytes")
	if cbBytes < 100*fovBytes {
		t.Errorf("content-based upload %v not >= 100x FoV upload %v", cbBytes, fovBytes)
	}
	cbQ := cellF(t, tab, 0, "query_us")
	fovQ := cellF(t, tab, 1, "query_us")
	if fovQ >= cbQ {
		t.Errorf("FoV query %v us not faster than content scan %v us", fovQ, cbQ)
	}
}

func TestTableClockSkew(t *testing.T) {
	tab := TableClockSkew(3000, 60)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Sub-second skews: results essentially unchanged (paper's claim).
	for i := 0; i < 2; i++ {
		if j := cellF(t, tab, i, "mean_jaccard_vs_true"); j < 0.98 {
			t.Errorf("row %d (%s): jaccard %v < 0.98 under sub-second skew",
				i, cell(t, tab, i, "skew"), j)
		}
	}
	// Jaccard must degrade monotonically (weakly) with skew, and be
	// clearly degraded at 5 minutes against 60 s windows.
	prev := 2.0
	for i := range tab.Rows {
		j := cellF(t, tab, i, "mean_jaccard_vs_true")
		if j > prev+0.02 {
			t.Errorf("row %d: jaccard %v not degrading with skew (prev %v)", i, j, prev)
		}
		prev = j
	}
	// At the test's reduced corpus density the degradation is milder than
	// the full-size run (0.38); it must still be clearly visible.
	if last := cellF(t, tab, len(tab.Rows)-1, "mean_jaccard_vs_true"); last > 0.85 {
		t.Errorf("5-minute skew barely degraded results (%v); experiment not discriminating", last)
	}
}

func TestTableMeasurements(t *testing.T) {
	tab := TableMeasurements(800)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	exactNS := cellF(t, tab, 0, "ns_per_eval")
	paperNS := cellF(t, tab, 1, "ns_per_eval")
	if exactNS < 20*paperNS {
		t.Errorf("clipping (%v ns) not >= 20x the closed form (%v ns)", exactNS, paperNS)
	}
	paperCorr := cellF(t, tab, 1, "corr_vs_exact_overlap")
	rectCorr := cellF(t, tab, 2, "corr_vs_exact_overlap")
	rotCorr := cellF(t, tab, 3, "corr_vs_exact_overlap")
	if paperCorr < 0.5 {
		t.Errorf("paper measurement correlation %v too weak", paperCorr)
	}
	if rectCorr < 0.3 {
		t.Errorf("rectangle IoU correlation %v implausibly weak", rectCorr)
	}
	if rotCorr >= paperCorr {
		t.Errorf("rotation-only (%v) should not beat the full measurement (%v): it ignores translation", rotCorr, paperCorr)
	}
}

func TestTableAblationNoise(t *testing.T) {
	tab := TableAblationNoise()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	clean := cellF(t, tab, 0, "clean_segments")
	// Zero noise: both pipelines match the clean count (conditioning must
	// not merge the genuine turn away entirely; allow small deviation).
	if raw0 := cellF(t, tab, 0, "raw_segments"); raw0 != clean {
		t.Errorf("zero-noise raw %v != clean %v", raw0, clean)
	}
	// At heavy noise the raw count inflates well beyond clean while the
	// conditioned count stays close.
	rawHeavy := cellF(t, tab, 4, "raw_segments")
	condHeavy := cellF(t, tab, 4, "conditioned_segments")
	if rawHeavy < 2*clean {
		t.Errorf("raw segmenter barely inflated under heavy noise: %v vs clean %v", rawHeavy, clean)
	}
	if condHeavy > 3*clean {
		t.Errorf("conditioned segmenter still shattered: %v vs clean %v", condHeavy, clean)
	}
	if condHeavy >= rawHeavy {
		t.Errorf("conditioning did not help: %v vs %v", condHeavy, rawHeavy)
	}
}

func TestTableSystemScale(t *testing.T) {
	tab := TableSystemScale([]int{20, 60})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		kb := cellF(t, tab, i, "descriptor_KB")
		mb := cellF(t, tab, i, "video_equiv_MB")
		if kb*1024 >= mb*1e6/1000 {
			t.Errorf("row %d: descriptor traffic %v KB not 3+ orders below %v MB video", i, kb, mb)
		}
		if p99 := cellF(t, tab, i, "query_p99_us"); p99 > 100_000 {
			t.Errorf("row %d: p99 %v us breaks the <100 ms claim", i, p99)
		}
	}
	if cellF(t, tab, 1, "segments") <= cellF(t, tab, 0, "segments") {
		t.Error("corpus did not grow with providers")
	}
}

func TestTableHeterogeneous(t *testing.T) {
	tab := TableHeterogeneous(40)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	defRecall := cellF(t, tab, 0, "witness_recall")
	devRecall := cellF(t, tab, 1, "witness_recall")
	if devRecall != 1 {
		t.Errorf("per-device recall %v, want 1.0 (witnesses stand inside their own radius)", devRecall)
	}
	if defRecall >= devRecall {
		t.Errorf("default-camera recall %v not below per-device %v", defRecall, devRecall)
	}
}

func TestWriteFig5Images(t *testing.T) {
	dir := t.TempDir()
	names, err := WriteFig5Images(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 9 {
		t.Fatalf("wrote %d images, want 9", len(names))
	}
	for _, n := range names {
		data, err := os.ReadFile(dir + "/" + n)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 100 || string(data[:2]) != "P5" {
			t.Fatalf("%s is not a plausible PGM (%d bytes)", n, len(data))
		}
	}
}
