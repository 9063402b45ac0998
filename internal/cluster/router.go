// The scatter-gather query router: a stateless process serving the
// single-node HTTP surface (/query, /nearest, /upload) over a
// partitioned cluster. Queries fan out to the partitions owning the
// query's window range, hedge to replicas when the leader is slow, and
// merge under the exact contract index.Sharded enforces — so a routed
// result is byte-identical to the same corpus on one node. Uploads
// split into per-owner runs and forward to partition leaders.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fovr/internal/client"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Topology is the validated partition map. Required.
	Topology *Topology
	// PartitionTimeout bounds each partition's total answer time,
	// hedges included. Zero selects 5s.
	PartitionTimeout time.Duration
	// HedgeAfter is the per-endpoint latency threshold after which the
	// router fires the same request at the partition's next endpoint
	// (leader first, then replicas; first success wins). Zero selects
	// 50ms; negative disables hedging.
	HedgeAfter time.Duration
	// ProbeTimeout bounds each /healthz probe of a partition node.
	// Zero selects 1s.
	ProbeTimeout time.Duration
	// DefaultMaxResults is the top-N when a query names none. It must
	// match the partitions' server.Config.DefaultMaxResults — the merge
	// is only byte-faithful when router and partitions truncate at the
	// same N. Zero selects 20, the server default.
	DefaultMaxResults int
	// MaxUploadBytes bounds upload bodies. Zero selects 8 MiB.
	MaxUploadBytes int64
	// Registry receives the fovr_cluster_* metrics; nil selects
	// obs.Default.
	Registry *obs.Registry
	// Logger receives request diagnostics; nil silences them.
	Logger *slog.Logger
	// HTTPClient, when non-nil, is shared by every partition client
	// (tests inject per-endpoint transports via the topology URLs).
	HTTPClient *http.Client
}

// routerPartition is one partition's client set, in hedging order.
type routerPartition struct {
	part    *Partition
	clients []*client.Partition // [leader, replicas...]
	latency *obs.Histogram      // µs per answered scatter leg
	errors  *obs.Counter
}

// Router scatter-gathers the single-node API over a partition map.
type Router struct {
	cfg    RouterConfig
	topo   *Topology
	parts  []*routerPartition
	reg    *obs.Registry
	log    *slog.Logger
	health *obs.HealthSet

	fanout *obs.Histogram // partitions visited per query
	hedges *obs.Counter   // hedge requests fired

	// Hedge-saturation accounting for the health checker: queries and
	// hedged queries since the counters were last inspected.
	queriesTotal  atomic.Int64
	queriesHedged atomic.Int64

	started time.Time
}

// NewRouter builds a router over a validated topology.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Topology == nil {
		return nil, errors.New("cluster: router: nil topology")
	}
	if cfg.PartitionTimeout == 0 {
		cfg.PartitionTimeout = 5 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 50 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DefaultMaxResults == 0 {
		cfg.DefaultMaxResults = 20
	}
	if cfg.MaxUploadBytes == 0 {
		cfg.MaxUploadBytes = 8 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(nopHandler{})
	}
	rt := &Router{
		cfg:     cfg,
		topo:    cfg.Topology,
		reg:     cfg.Registry,
		log:     log,
		fanout:  cfg.Registry.Histogram("fovr_cluster_fanout_partitions"),
		hedges:  cfg.Registry.Counter("fovr_cluster_hedges_total"),
		started: time.Now(),
	}
	for i := range rt.topo.Partitions {
		p := &rt.topo.Partitions[i]
		rp := &routerPartition{
			part:    p,
			latency: cfg.Registry.Histogram(fmt.Sprintf("fovr_cluster_partition_latency_micros{partition=%q}", p.ID)),
			errors:  cfg.Registry.Counter(fmt.Sprintf("fovr_cluster_partition_errors_total{partition=%q}", p.ID)),
		}
		for _, ep := range p.Endpoints() {
			pc := client.NewPartition(ep)
			if cfg.HTTPClient != nil {
				pc.HTTPClient = cfg.HTTPClient
			}
			rp.clients = append(rp.clients, pc)
		}
		rt.parts = append(rt.parts, rp)
	}
	rt.health = obs.NewHealthSet()
	rt.registerHealthChecks()
	return rt, nil
}

// partition returns the client set for a topology partition.
func (rt *Router) partition(p *Partition) *routerPartition {
	for _, rp := range rt.parts {
		if rp.part == p {
			return rp
		}
	}
	return nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", rt.handleQuery)
	mux.HandleFunc("/nearest", rt.handleNearest)
	mux.HandleFunc("/upload", rt.handleUpload)
	mux.HandleFunc("/cluster/topology", rt.handleTopology)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// nopHandler mirrors the server package's silent logger.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func respondJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	_, _ = w.Write(data)
}

// traceID returns the propagated trace id or mints a router one.
func (rt *Router) traceID(r *http.Request) string {
	if id := r.Header.Get(server.TraceHeader); id != "" {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rt-00000000"
	}
	return "rt-" + hex.EncodeToString(b[:])
}

// scatterResult is one partition's answer to a scattered call.
type scatterResult[T any] struct {
	part   *Partition
	resp   T
	hedges int
	err    error
}

// scatter runs call against every owner partition concurrently, each
// under the partition timeout with hedging across its endpoints, and
// returns the per-partition outcomes in owner order.
func scatter[T any](rt *Router, ctx context.Context, owners []*Partition,
	call func(ctx context.Context, pc *client.Partition) (T, error)) []scatterResult[T] {

	out := make([]scatterResult[T], len(owners))
	var wg sync.WaitGroup
	for i, p := range owners {
		rp := rt.partition(p)
		wg.Add(1)
		go func(i int, p *Partition, rp *routerPartition) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.PartitionTimeout)
			defer cancel()
			start := time.Now()
			resp, hedges, err := hedgedCall(pctx, rp.clients, rt.cfg.HedgeAfter, call)
			rp.latency.Observe(float64(time.Since(start).Microseconds()))
			if err != nil {
				rp.errors.Inc()
			}
			if hedges > 0 {
				rt.hedges.Add(int64(hedges))
			}
			out[i] = scatterResult[T]{part: p, resp: resp, hedges: hedges, err: err}
		}(i, p, rp)
	}
	wg.Wait()
	return out
}

// hedgedCall runs call against eps[0] and, each time hedgeAfter
// elapses without an answer — or every in-flight attempt has failed —
// fires the next endpoint. First success wins and cancels the rest;
// the error case joins every endpoint's failure. hedges counts the
// extra requests fired.
func hedgedCall[T any](ctx context.Context, eps []*client.Partition, hedgeAfter time.Duration,
	call func(ctx context.Context, pc *client.Partition) (T, error)) (T, int, error) {

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		resp T
		err  error
	}
	ch := make(chan attempt, len(eps))
	launched := 0
	launch := func() {
		ep := eps[launched]
		launched++
		go func() {
			resp, err := call(cctx, ep)
			ch <- attempt{resp, err}
		}()
	}
	launch()
	var timer *time.Timer
	var timerC <-chan time.Time
	if hedgeAfter > 0 && len(eps) > 1 {
		timer = time.NewTimer(hedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
	var errs []error
	done := 0
	for {
		select {
		case a := <-ch:
			if a.err == nil {
				return a.resp, launched - 1, nil
			}
			errs = append(errs, a.err)
			done++
			if done == launched {
				// Every attempt so far failed: fire the next endpoint
				// immediately rather than waiting out the hedge timer.
				if launched < len(eps) {
					launch()
					continue
				}
				var zero T
				return zero, launched - 1, errors.Join(errs...)
			}
		case <-timerC:
			if launched < len(eps) {
				launch()
			}
			if launched < len(eps) {
				timer.Reset(hedgeAfter)
			} else {
				timerC = nil
			}
		case <-cctx.Done():
			var zero T
			return zero, launched - 1, errors.Join(append(errs, cctx.Err())...)
		}
	}
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	var req server.QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "json: %v", err)
		return
	}
	if err := req.Query.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	explain := r.URL.Query().Get("explain") == "1"
	max := req.MaxResults
	if max <= 0 {
		max = rt.cfg.DefaultMaxResults
	}
	req.MaxResults = max // partitions must rank under the same top-N
	trace := rt.traceID(r)
	start := time.Now()

	owners := rt.topo.OwnersForQuery(req.StartMillis, req.EndMillis)
	rt.fanout.Observe(float64(len(owners)))
	path := "/query"
	if explain {
		path = "/query?explain=1"
	}
	results := scatter(rt, r.Context(), owners, func(ctx context.Context, pc *client.Partition) (server.QueryResponse, error) {
		var resp server.QueryResponse
		err := pc.PostJSON(ctx, path, req, &resp, trace)
		return resp, err
	})
	rt.accountQuery(results)

	lists := make([][]query.Ranked, 0, len(results))
	var tr *obs.QueryTrace
	if explain {
		tr = obs.NewQueryTrace(trace)
		tr.SetQuery(fmt.Sprintf("cluster center=(%.6f,%.6f) r=%.0fm t=[%d,%d] top=%d fanout=%d",
			req.Center.Lat, req.Center.Lng, req.RadiusMeters, req.StartMillis, req.EndMillis, max, len(owners)))
	}
	for _, res := range results {
		if res.err != nil {
			// Correctness over partial answers: a missing owner means
			// missing results, and a silent partial merge would break
			// the byte-identical contract. 502 names the partition.
			rt.log.Error("partition query failed", "partition", res.part.ID, "traceID", trace, "err", res.err)
			httpError(w, http.StatusBadGateway, "partition %q: %v", res.part.ID, res.err)
			return
		}
		lists = append(lists, res.resp.Results)
		if tr != nil && res.resp.Trace != nil {
			// The routed trace's index cost is the sum over partitions.
			// Each partition's walk is bounded by its own top N, so the
			// sum can exceed what one node holding everything visits.
			tr.AddIndexVisit(res.resp.Trace.NodesVisited, res.resp.Trace.LeafEntriesScanned)
		}
	}
	merged := query.MergeRanked(lists, max)
	if merged == nil {
		merged = []query.Ranked{}
	}
	resp := server.QueryResponse{
		Results:       merged,
		ElapsedMicros: time.Since(start).Microseconds(),
		TraceID:       trace,
	}
	if tr != nil {
		tr.Finish(nil)
		resp.Trace = tr
	}
	rt.log.Info("query", "fanout", len(owners), "hits", len(merged), "traceID", trace)
	respondJSON(w, resp)
}

func (rt *Router) handleNearest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	var req server.NearestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "json: %v", err)
		return
	}
	if req.K <= 0 {
		req.K = rt.cfg.DefaultMaxResults
	}
	trace := rt.traceID(r)
	start := time.Now()
	owners := rt.topo.OwnersForQuery(req.StartMillis, req.EndMillis)
	rt.fanout.Observe(float64(len(owners)))
	results := scatter(rt, r.Context(), owners, func(ctx context.Context, pc *client.Partition) (server.NearestResponse, error) {
		var resp server.NearestResponse
		err := pc.PostJSON(ctx, "/nearest", req, &resp, trace)
		return resp, err
	})
	rt.accountQuery(results)
	lists := make([][]query.Ranked, 0, len(results))
	for _, res := range results {
		if res.err != nil {
			rt.log.Error("partition nearest failed", "partition", res.part.ID, "traceID", trace, "err", res.err)
			httpError(w, http.StatusBadGateway, "partition %q: %v", res.part.ID, res.err)
			return
		}
		lists = append(lists, res.resp.Results)
	}
	merged := query.MergeNearest(req.Center, lists, req.K)
	if merged == nil {
		merged = []query.Ranked{}
	}
	rt.log.Info("nearest", "fanout", len(owners), "hits", len(merged), "traceID", trace)
	respondJSON(w, server.NearestResponse{
		Results:       merged,
		ElapsedMicros: time.Since(start).Microseconds(),
		TraceID:       trace,
	})
}

// accountQuery feeds the hedge-saturation health signal.
func accountOne[T any](rt *Router, results []scatterResult[T]) {
	rt.queriesTotal.Add(1)
	for _, res := range results {
		if res.hedges > 0 {
			rt.queriesHedged.Add(1)
			return
		}
	}
}

func (rt *Router) accountQuery(results any) {
	switch rs := results.(type) {
	case []scatterResult[server.QueryResponse]:
		accountOne(rt, rs)
	case []scatterResult[server.NearestResponse]:
		accountOne(rt, rs)
	}
}

func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxUploadBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	if int64(len(body)) > rt.cfg.MaxUploadBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", rt.cfg.MaxUploadBytes)
		return
	}
	var u wire.Upload
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "application/json"):
		if err := json.Unmarshal(body, &u); err != nil {
			httpError(w, http.StatusBadRequest, "json: %v", err)
			return
		}
	default:
		u, err = wire.DecodeBinary(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "decode: %v", err)
			return
		}
	}
	trace := rt.traceID(r)
	runs, err := rt.splitUpload(u)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Forward run-by-run in order. A failure after earlier runs
	// committed leaves a partial upload — the same at-least-once
	// exposure the single-node client retry already documents — so the
	// error names how far ingest got.
	ids := make([]uint64, len(u.Reps))
	for runIdx, run := range runs {
		rp := rt.partition(run.owner)
		sub := wire.Upload{Provider: u.Provider, Reps: run.reps, Camera: u.Camera}
		resp, err := rp.clients[0].Upload(r.Context(), sub, trace)
		if err != nil {
			rp.errors.Inc()
			rt.log.Error("partition upload failed", "partition", run.owner.ID, "traceID", trace, "err", err)
			httpError(w, http.StatusBadGateway,
				"partition %q: %v (%d of %d runs committed; resubmitting the upload is safe but may duplicate reps)",
				run.owner.ID, err, runIdx, len(runs))
			return
		}
		if len(resp.IDs) != len(run.reps) {
			httpError(w, http.StatusBadGateway, "partition %q: %d ids for %d reps", run.owner.ID, len(resp.IDs), len(run.reps))
			return
		}
		for i, id := range resp.IDs {
			ids[run.positions[i]] = id
		}
	}
	rt.log.Info("upload", "provider", u.Provider, "reps", len(u.Reps), "runs", len(runs), "traceID", trace)
	respondJSON(w, server.UploadResponse{IDs: ids, TraceID: trace})
}

// uploadRun is a maximal contiguous slice of an upload's reps owned by
// one partition, with the original positions so ids reassemble in rep
// order.
type uploadRun struct {
	owner     *Partition
	reps      []segment.Representative
	positions []int
}

// splitUpload groups an upload's reps into contiguous per-owner runs,
// preserving order.
func (rt *Router) splitUpload(u wire.Upload) ([]uploadRun, error) {
	var runs []uploadRun
	for i, rep := range u.Reps {
		owner, err := rt.topo.OwnerOfRep(rep)
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && runs[len(runs)-1].owner == owner {
			last := &runs[len(runs)-1]
			last.reps = append(last.reps, rep)
			last.positions = append(last.positions, i)
			continue
		}
		runs = append(runs, uploadRun{owner: owner, reps: []segment.Representative{rep}, positions: []int{i}})
	}
	return runs, nil
}

func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	respondJSON(w, rt.topo)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
}
