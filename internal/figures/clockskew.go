package figures

import (
	"math/rand"

	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/workload"
)

// TableClockSkew puts numbers behind Section VI-A's clock-synchronization
// argument: COTS devices synchronize to sub-second error over NTP/SNTP,
// and "video retrieval systems are not sensitive to time deviation". We
// inject a per-provider clock offset drawn uniformly from ±skew into
// every segment timestamp, re-run the same query workload, and report the
// mean Jaccard similarity between the skewed and true result sets.
// Sub-second skews should leave results essentially unchanged; the table
// also shows where the claim stops holding (minutes of skew against
// minute-scale query windows).
func TableClockSkew(n, queries int) *Table {
	if n <= 0 {
		n = 10000
	}
	if queries <= 0 {
		queries = 150
	}
	t := &Table{
		Title:   "Section VI-A — sensitivity to clock skew between devices",
		Columns: []string{"skew", "mean_jaccard_vs_true", "queries_changed_pct"},
	}
	// A dense afternoon downtown so queries actually return result sets
	// whose membership skew can perturb.
	cfg := workload.Config{Seed: 81, ExtentMeters: 1200, HorizonMillis: 2 * 3600 * 1000}
	entries := workload.Entries(cfg, n)
	// Minute-scale query windows: the harshest realistic case for skew.
	qs := workload.Queries(cfg, queries, 50, 60_000)
	opts := query.Options{Camera: defaultCam, MaxResults: 20}

	baseline := resultSets(entries, qs, opts)

	skews := []struct {
		label  string
		millis int64
	}{
		{"100ms (NTP)", 100},
		{"500ms (SNTP)", 500},
		{"2s (no sync, warm RTC)", 2000},
		{"30s", 30_000},
		{"5min (unsynced clock)", 300_000},
	}
	for _, sk := range skews {
		rng := rand.New(rand.NewSource(sk.millis))
		offsets := map[string]int64{}
		skewed := make([]index.Entry, len(entries))
		for i, e := range entries {
			off, ok := offsets[e.Provider]
			if !ok {
				off = int64((rng.Float64()*2 - 1) * float64(sk.millis))
				offsets[e.Provider] = off
			}
			e.Rep.StartMillis += off
			e.Rep.EndMillis += off
			if e.Rep.StartMillis < 0 {
				e.Rep.EndMillis -= e.Rep.StartMillis
				e.Rep.StartMillis = 0
			}
			skewed[i] = e
		}
		got := resultSets(skewed, qs, opts)
		sumJ := 0.0
		changed := 0
		for i := range baseline {
			j := jaccard(baseline[i], got[i])
			sumJ += j
			if j < 1 {
				changed++
			}
		}
		t.AddRow(sk.label,
			f3(sumJ/float64(len(baseline))),
			f1(100*float64(changed)/float64(len(baseline))))
	}
	t.AddNote("Per-provider offsets uniform in ±skew; query windows are 60 s. Expectation (paper): sub-second deviations 'make negligible difference'; the knee appears when skew approaches the query window.")
	return t
}

func resultSets(entries []index.Entry, qs []query.Query, opts query.Options) []map[uint64]bool {
	idx := bulkLoad(entries)
	out := make([]map[uint64]bool, len(qs))
	for i, q := range qs {
		hits, err := query.Search(idx, q, opts)
		if err != nil {
			panic(err)
		}
		set := make(map[uint64]bool, len(hits))
		for _, h := range hits {
			set[h.Entry.ID] = true
		}
		out[i] = set
	}
	return out
}

func jaccard(a, b map[uint64]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for id := range a {
		if b[id] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
