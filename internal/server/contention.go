// Contention observatory endpoints: GET /debug/contention (per-class
// lock wait/hold percentiles plus the runtime mutex/block profiles
// diffed over the window, parsed to JSON) and GET /debug/hotspots
// (Space-Saving top-K sketches over query grid cells, providers, and
// shard windows).
package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
)

// defaultHotspotCellDegrees is the query-cell grid size: ~1.1 km of
// latitude, matching the few-hundred-meter query radii the paper's
// workloads use.
const defaultHotspotCellDegrees = 0.01

// hotspotSet is the server's heavy-hitter sketches: where queries
// concentrate (grid cells), who uploads most (providers), and which
// hour-long time windows absorb ingest (index.WindowKey under
// index.DefaultShardWindowMillis, the cluster's default placement key).
type hotspotSet struct {
	cellDeg   float64
	cells     *obs.TopK[uint64]
	providers *obs.TopK[string]
	windows   *obs.TopK[int64]
}

func newHotspotSet(k int, cellDeg float64) *hotspotSet {
	if cellDeg <= 0 {
		cellDeg = defaultHotspotCellDegrees
	}
	return &hotspotSet{
		cellDeg:   cellDeg,
		cells:     obs.NewTopK[uint64](k),
		providers: obs.NewTopK[string](k),
		windows:   obs.NewTopK[int64](k),
	}
}

// cellKey packs the query center's grid cell into one sketch key.
func (h *hotspotSet) cellKey(lat, lng float64) uint64 {
	cy := int32(math.Floor(lat / h.cellDeg))
	cx := int32(math.Floor(lng / h.cellDeg))
	return uint64(uint32(cy))<<32 | uint64(uint32(cx))
}

// cellLabel renders a cell key as its south-west corner.
func (h *hotspotSet) cellLabel(key uint64) string {
	cy := int32(key >> 32)
	cx := int32(key & 0xffffffff)
	return fmt.Sprintf("cell(%.*f,%.*f)", cellDecimals(h.cellDeg), float64(cy)*h.cellDeg,
		cellDecimals(h.cellDeg), float64(cx)*h.cellDeg)
}

// cellDecimals picks enough decimals to distinguish adjacent cells.
func cellDecimals(deg float64) int {
	d := 0
	for deg < 1 && d < 8 {
		deg *= 10
		d++
	}
	return d
}

// observeQuery feeds the query path: one offer per query, keyed by the
// center's grid cell. Steady-state cost is one mutexed O(log k) heap
// update and zero allocations.
func (h *hotspotSet) observeQuery(q query.Query) {
	h.cells.Offer(h.cellKey(q.Center.Lat, q.Center.Lng), 1)
}

// observeUpload feeds the ingest path: the provider weighted by batch
// size, and each representative's window key.
func (h *hotspotSet) observeUpload(provider string, entries []index.Entry) {
	h.providers.Offer(provider, int64(len(entries)))
	for _, e := range entries {
		h.windows.Offer(index.WindowKey(e.Rep.StartMillis, index.DefaultShardWindowMillis), 1)
	}
}

// topSharePct returns the heaviest key's share of the sketch's total
// offered weight, in percent; 0 for an empty sketch.
func topSharePct[K comparable](t *obs.TopK[K]) float64 {
	top, ok := t.Top()
	if !ok {
		return 0
	}
	total := t.Total()
	if total <= 0 {
		return 0
	}
	return 100 * float64(top.Count) / float64(total)
}

// registerHotspotMetrics exposes each sketch's top-key share as a
// gauge. The history sampler picks gauges up automatically, which is
// what feeds the fovctl top hotspots pane.
func (s *Server) registerHotspotMetrics() {
	h := s.hotspots
	s.reg.GaugeFunc(`fovr_hotspot_top_share{sketch="query_cells"}`,
		func() float64 { return topSharePct(h.cells) })
	s.reg.GaugeFunc(`fovr_hotspot_top_share{sketch="providers"}`,
		func() float64 { return topSharePct(h.providers) })
	s.reg.GaugeFunc(`fovr_hotspot_top_share{sketch="shard_windows"}`,
		func() float64 { return topSharePct(h.windows) })
}

// serveLabeled runs the handler under a pprof endpoint label while the
// contention profilers are on, so profile samples attribute to the
// endpoint class; with profiling off it is a plain call (pprof.Do
// allocates).
func serveLabeled(endpoint string, h http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	if !obs.ProfilingEnabled() {
		h(w, r)
		return
	}
	pprof.Do(r.Context(), pprof.Labels("endpoint", endpoint), func(ctx context.Context) {
		h(w, r.WithContext(ctx))
	})
}

// HotspotEntry is one heavy hitter in a HotspotSketch.
type HotspotEntry struct {
	// Key is the rendered sketch key: "cell(lat,lng)" (south-west
	// corner), a provider id, or a shard window label ("t42").
	Key string `json:"key"`
	// Count is the Space-Saving estimate — an upper bound on the key's
	// true count; Count - ErrBound is a lower bound.
	Count    int64 `json:"count"`
	ErrBound int64 `json:"errBound"`
	// SharePct is Count as a percentage of the sketch's total weight.
	SharePct float64 `json:"sharePct"`
}

// HotspotSketch is one top-K sketch's contents.
type HotspotSketch struct {
	Name    string         `json:"name"`
	Total   int64          `json:"total"`
	K       int            `json:"k"`
	Entries []HotspotEntry `json:"entries"`
}

// HotspotsResponse is the body of GET /debug/hotspots.
type HotspotsResponse struct {
	Enabled bool `json:"enabled"`
	// CellDegrees is the query-cell grid size.
	CellDegrees float64         `json:"cellDegrees,omitempty"`
	Sketches    []HotspotSketch `json:"sketches,omitempty"`
}

func sketchJSON[K comparable](name string, t *obs.TopK[K], render func(K) string, n int) HotspotSketch {
	items := t.Items()
	if n > 0 && len(items) > n {
		items = items[:n]
	}
	total := t.Total()
	out := HotspotSketch{Name: name, Total: total, K: t.K(), Entries: make([]HotspotEntry, len(items))}
	for i, e := range items {
		he := HotspotEntry{Key: render(e.Key), Count: e.Count, ErrBound: e.Err}
		if total > 0 {
			he.SharePct = 100 * float64(e.Count) / float64(total)
		}
		out.Entries[i] = he
	}
	return out
}

func (s *Server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	h := s.hotspots
	if h == nil {
		s.respondJSON(w, HotspotsResponse{Enabled: false})
		return
	}
	n := queryTopN(r, 0) // 0 = full sketch
	s.respondJSON(w, HotspotsResponse{
		Enabled:     true,
		CellDegrees: h.cellDeg,
		Sketches: []HotspotSketch{
			sketchJSON("query_cells", h.cells, h.cellLabel, n),
			sketchJSON("providers", h.providers, func(p string) string { return p }, n),
			sketchJSON("shard_windows", h.windows, func(k int64) string { return fmt.Sprintf("t%d", k) }, n),
		},
	})
}

// LockClassStats is one lock class's sampled wait/hold summary.
type LockClassStats struct {
	Class string `json:"class"`
	// Acquisitions counts instrumented acquisitions observed while
	// sampling was on; Sampled of them were actually timed.
	Acquisitions int64 `json:"acquisitions"`
	Sampled      int64 `json:"sampled"`
	// Wait is Lock() call to acquisition; Hold is acquisition to
	// release. Interpolated percentile estimates in nanoseconds.
	WaitP50Ns float64 `json:"waitP50Ns"`
	WaitP99Ns float64 `json:"waitP99Ns"`
	HoldP50Ns float64 `json:"holdP50Ns"`
	HoldP99Ns float64 `json:"holdP99Ns"`
}

// ContentionResponse is the body of GET /debug/contention.
type ContentionResponse struct {
	// LockSampleRate is the 1-in-N lock accounting rate (0 = off).
	LockSampleRate int `json:"lockSampleRate"`
	// ProfileEnabled reports whether the runtime contention profilers
	// are on, with their configured rates.
	ProfileEnabled       bool `json:"profileEnabled"`
	MutexProfileFraction int  `json:"mutexProfileFraction,omitempty"`
	BlockProfileRateNs   int  `json:"blockProfileRateNs,omitempty"`
	// WindowSeconds is the span the profile deltas cover: time since the
	// previous /debug/contention request (0 on the first).
	WindowSeconds float64          `json:"windowSeconds"`
	Locks         []LockClassStats `json:"locks"`
	// MutexTop and BlockTop are the top contended frames of the runtime
	// mutex/block profiles over the window, heaviest delay first.
	MutexTop []obs.ContentionSite `json:"mutexTop"`
	BlockTop []obs.ContentionSite `json:"blockTop"`
}

// lockMetricClass splits a lock metric name like
// fovr_lock_wait_ns{class="index.tree"} into base and class.
func lockMetricClass(name string) (base, class string, ok bool) {
	if !strings.HasPrefix(name, "fovr_lock_") {
		return "", "", false
	}
	i := strings.Index(name, `{class="`)
	if i < 0 || !strings.HasSuffix(name, `"}`) {
		return "", "", false
	}
	return name[:i], name[i+len(`{class="`) : len(name)-len(`"}`)], true
}

// lockStats aggregates the registry's lock-class metrics into per-class
// rows, sorted by class name.
func (s *Server) lockStats() []LockClassStats {
	byClass := make(map[string]*LockClassStats)
	get := func(class string) *LockClassStats {
		st := byClass[class]
		if st == nil {
			st = &LockClassStats{Class: class}
			byClass[class] = st
		}
		return st
	}
	for _, rd := range s.reg.Readings() {
		base, class, ok := lockMetricClass(rd.Name)
		if !ok {
			continue
		}
		switch base {
		case "fovr_lock_wait_ns":
			st := get(class)
			st.WaitP50Ns, st.WaitP99Ns = rd.P50, rd.P99
		case "fovr_lock_hold_ns":
			st := get(class)
			st.HoldP50Ns, st.HoldP99Ns = rd.P50, rd.P99
		case "fovr_lock_acquisitions_total":
			get(class).Acquisitions = int64(rd.Value)
		case "fovr_lock_sampled_total":
			get(class).Sampled = int64(rd.Value)
		}
	}
	out := make([]LockClassStats, 0, len(byClass))
	for _, st := range byClass {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// queryTopN parses the ?top= parameter, falling back to def.
func queryTopN(r *http.Request, def int) int {
	if v := r.URL.Query().Get("top"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 1000 {
			return n
		}
	}
	return def
}

func (s *Server) handleContention(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	n := queryTopN(r, 10)
	mutexTop, blockTop, window := s.contention.Top(n)
	mf, br := obs.ProfileRates()
	s.respondJSON(w, ContentionResponse{
		LockSampleRate:       obs.LockSampleRate(),
		ProfileEnabled:       obs.ProfilingEnabled(),
		MutexProfileFraction: mf,
		BlockProfileRateNs:   br,
		WindowSeconds:        window.Seconds(),
		Locks:                s.lockStats(),
		MutexTop:             mutexTop,
		BlockTop:             blockTop,
	})
}
