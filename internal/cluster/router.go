// The scatter-gather query router: a stateless process serving the
// single-node HTTP surface (/query, /nearest, /upload) over a
// partitioned cluster. Queries fan out to the partitions owning the
// query's window range and to the first partition, which holds the
// over-long segments; a /nearest goes out as the /query it asks. Legs
// hedge to replicas when the leader is slow, and the ranked partition
// answers merge by (distance, id) — so a routed result is
// byte-identical to the same corpus on one node. Uploads split into
// per-owner runs and forward to partition leaders.
//
// A routed read is built once and gathered on the handler's own
// goroutine (scatter); only a leg whose leader is slow, unreachable or
// wrong leaves that path for the hedged race (race).
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

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
	// DefaultMaxResults is the top-N when a query names none. The
	// router sends every partition the N it resolved, so no partition's
	// default applies to a routed read; it must equal the nodes'
	// server.Config.DefaultMaxResults only for a routed answer to equal
	// what one node answers to a question that names no N. Zero selects
	// 20, the server default.
	DefaultMaxResults int
	// Registry receives the fovr_cluster_* metrics; nil selects
	// obs.Default.
	Registry *obs.Registry
	// Logger receives request diagnostics; nil silences them.
	Logger *slog.Logger
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
	logOn  bool // a logger is configured; off skips building log fields
	health *obs.HealthSet

	gathers sync.Pool // *gather: the buffers of one routed read

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
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Discard
	}
	rt := &Router{
		cfg:     cfg,
		topo:    cfg.Topology,
		reg:     cfg.Registry,
		log:     log,
		logOn:   cfg.Logger != nil,
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
			pc, err := client.NewPartition(ep)
			if err != nil {
				return nil, fmt.Errorf("cluster: router: partition %q: %w", p.ID, err)
			}
			rp.clients = append(rp.clients, pc)
		}
		rt.parts = append(rt.parts, rp)
	}
	rt.health = obs.NewHealthSet()
	rt.registerHealthChecks()
	return rt, nil
}

// Close drops the router's pooled partition connections. Requests still
// in flight finish; the router stays usable, on fresh connections.
func (rt *Router) Close() {
	for _, rp := range rt.parts {
		for _, pc := range rp.clients {
			pc.Close()
		}
	}
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

// Handler returns the router's HTTP surface. Each route names its
// method; the mux answers any other with 405 and an Allow header.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", rt.handleQuery)
	mux.HandleFunc("POST /nearest", rt.handleNearest)
	mux.HandleFunc("POST /upload", rt.handleUpload)
	mux.HandleFunc("GET /cluster/topology", rt.handleTopology)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.Handle("GET /metrics", rt.reg)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func respondJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	server.WriteJSON(w, data, err)
}

// traceID returns the propagated trace id or mints a router one. An id
// is propagated only if a partition will echo it back unchanged, which
// answers relies on: it must go into a request head as it stands, be no
// longer than a server adopts, and survive the answer's JSON encoding
// (valid UTF-8).
func (rt *Router) traceID(r *http.Request) string {
	if id := r.Header.Get(server.TraceHeader); id != "" && len(id) <= server.MaxTraceIDLen &&
		client.ValidHeaderValue(id) && utf8.ValidString(id) {
		return id
	}
	const digits = "0123456789abcdef"
	id := [19]byte{'r', 't', '-'}
	for i, v := 3, rand.Uint64(); i < len(id); i, v = i+1, v>>4 {
		id[i] = digits[v&15]
	}
	return string(id[:])
}

// leg is one partition's share of a routed read.
type leg struct {
	rp     *routerPartition
	call   client.Call // on the leader, while the leg is on the common path
	body   []byte      // the partition's answer
	answer server.QueryResponse
	micros int64 // until the leg had its answer or its error
	hedges int   // extra requests fired
	err    error
}

// gather holds everything one routed read builds; all of it is reused
// by the next request that draws it from the pool.
type gather struct {
	in     []byte             // the inquirer's body
	body   []byte             // the body the partitions get
	req    client.ReadRequest // head + body, rendered once
	legs   []leg
	lists  [][]query.Ranked
	merged []query.Ranked
	out    []byte
	wg     sync.WaitGroup // legs in the hedged race
}

func (rt *Router) getGather() *gather {
	if sc, ok := rt.gathers.Get().(*gather); ok {
		return sc
	}
	return new(gather)
}

func (rt *Router) putGather(sc *gather) {
	if cap(sc.out) <= 1<<18 { // the buffers of an unusually large answer are let go
		rt.gathers.Put(sc)
	}
}

// scatter sends sc.req to the leader of every owner and gathers the
// answers into sc.legs, in owner order. The common case — a pooled
// connection to every leader, every leader answering before HedgeAfter
// — runs entirely on this goroutine: all requests are written first,
// so the partitions work concurrently, then the answers are read back
// in turn under the connections' deadlines. A leg that cannot go that
// way (no pooled connection, a stale one, a leader silent past
// HedgeAfter, a failed exchange) is handed to race in a goroutine of
// its own while the remaining legs are read, so a slow partition costs
// the routed read the maximum over its legs, never the sum.
func (rt *Router) scatter(ctx context.Context, sc *gather, owners []*Partition) {
	start := time.Now()
	deadline := start.Add(rt.cfg.PartitionTimeout)
	rt.fanout.Observe(float64(len(owners)))
	// Legs past len keep their buffers from earlier requests.
	if n := len(owners) - cap(sc.legs); n > 0 {
		sc.legs = append(sc.legs[:cap(sc.legs)], make([]leg, n)...)
	}
	sc.legs = sc.legs[:len(owners)]
	for i, p := range owners {
		l := &sc.legs[i]
		l.rp, l.hedges = rt.partition(p), 0
		until := deadline
		if rt.hedging(l.rp) {
			until = start.Add(rt.cfg.HedgeAfter)
		}
		l.call, l.err = l.rp.clients[0].Send(&sc.req, until)
	}
	var raced *client.ReadRequest // a copy the race may outlive sc with
	for i := range sc.legs {
		l := &sc.legs[i]
		if l.err == nil {
			if l.err = l.call.Wait(); l.err == nil {
				l.body, l.err = l.call.Recv(l.body[:0], deadline)
			}
			if l.err == nil {
				l.micros = time.Since(start).Microseconds()
				continue
			}
		}
		if raced == nil {
			raced = sc.req.Clone()
		}
		sc.wg.Add(1)
		go rt.race(ctx, &sc.wg, l, raced, start, deadline)
	}
	sc.wg.Wait()

	rt.queriesTotal.Add(1)
	hedged := false
	for i := range sc.legs {
		l := &sc.legs[i]
		l.rp.latency.Observe(float64(l.micros))
		if l.err != nil {
			l.rp.errors.Inc()
		}
		if l.hedges > 0 {
			rt.hedges.Add(int64(l.hedges))
			hedged = true
		}
	}
	if hedged {
		rt.queriesHedged.Add(1)
	}
}

// hedging reports whether a slow leader of rp has anywhere to hedge to.
func (rt *Router) hedging(rp *routerPartition) bool {
	return rt.cfg.HedgeAfter > 0 && len(rp.clients) > 1
}

// race finishes a leg that left scatter's common path, l.err saying
// why, by racing the partition's endpoints in hedging order (leader
// first, then replicas): each time HedgeAfter elapses without an
// answer — or every request in flight has failed — the next endpoint is
// fired. The first success wins and cancels the rest, whose connections
// are closed, not pooled; the error case joins every endpoint's
// failure.
//
//   - ErrSlow: the leader's exchange is still in flight and stays in
//     the race; HedgeAfter has already passed, so the next endpoint is
//     fired at once.
//   - ErrNoConn, ErrStale: nothing reached the leader, or what did was
//     lost with a connection the leader had closed; the leader is asked
//     (again) on a new connection. This is not a hedge.
//   - anything else: the leader failed; the next endpoint is fired at
//     once.
func (rt *Router) race(ctx context.Context, wg *sync.WaitGroup, l *leg, req *client.ReadRequest, start, deadline time.Time) {
	defer wg.Done()
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	eps := l.rp.clients
	type attempt struct {
		body []byte
		err  error
	}
	ch := make(chan attempt, len(eps))
	launched, done := 0, 0
	launch := func() {
		ep := eps[launched]
		launched++
		go func() {
			body, err := ep.RoundTrip(ctx, req, deadline)
			ch <- attempt{body, err}
		}()
	}
	var errs []error
	switch {
	case errors.Is(l.err, client.ErrSlow):
		launched = 1
		go func(k client.Call) {
			body, err := k.Finish(ctx, deadline)
			ch <- attempt{body, err}
		}(l.call)
		if rt.hedging(l.rp) {
			launch()
		}
	case errors.Is(l.err, client.ErrNoConn), errors.Is(l.err, client.ErrStale):
		launch()
	default:
		errs = append(errs, l.err)
		launched, done = 1, 1
		if launched < len(eps) {
			launch()
		}
	}
	var timer *time.Timer
	var timerC <-chan time.Time
	if rt.hedging(l.rp) && launched < len(eps) {
		timer = time.NewTimer(rt.cfg.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
loop:
	for done < launched {
		select {
		case a := <-ch:
			if a.err == nil {
				l.body, errs = a.body, nil
				break loop
			}
			errs = append(errs, a.err)
			done++
			if done == launched && launched < len(eps) {
				// Every request so far failed: fire the next endpoint
				// now rather than waiting out the hedge timer.
				launch()
			}
		case <-timerC:
			if launched < len(eps) {
				launch()
			}
			if launched < len(eps) {
				timer.Reset(rt.cfg.HedgeAfter)
			} else {
				timerC = nil
			}
		case <-ctx.Done():
			errs = append(errs, ctx.Err())
			break loop
		}
	}
	l.err = errors.Join(errs...)
	l.hedges = launched - 1
	l.micros = time.Since(start).Microseconds()
}

// answers decodes every leg's body, or writes the 502 for the first
// partition that has none. Correctness over partial answers: a missing
// owner means missing results, and a silent partial merge would break
// the byte-identical contract, so the 502 names the partition.
//
// A partition echoes the request's trace id, so an answer naming
// another id is not this request's: bytes that arrived on a pooled
// connection after its last exchange ended (a duplicated response)
// were read as this one's answer. The leg fails and the partition's
// pooled connections are dropped, that one among them.
func (rt *Router) answers(w http.ResponseWriter, sc *gather, what, trace string) bool {
	sc.lists = sc.lists[:0]
	for i := range sc.legs {
		l := &sc.legs[i]
		if l.err == nil {
			if err := server.DecodeQueryResponse(l.body, &l.answer); err != nil {
				l.err = fmt.Errorf("undecodable answer: %w", err)
			} else if l.answer.TraceID != trace {
				l.err = fmt.Errorf("answer for trace %q, not %q: a stale response on a reused connection", l.answer.TraceID, trace)
				for _, ep := range l.rp.clients {
					ep.DropIdle()
				}
			}
			if l.err != nil {
				l.rp.errors.Inc()
			}
		}
		if l.err != nil {
			rt.log.Error("partition "+what+" failed", "partition", l.rp.part.ID, "traceID", trace, "err", l.err)
			httpError(w, http.StatusBadGateway, "partition %q: %v", l.rp.part.ID, l.err)
			return false
		}
		sc.lists = append(sc.lists, l.answer.Results)
	}
	return true
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request)   { rt.serveRead(w, r, false) }
func (rt *Router) handleNearest(w http.ResponseWriter, r *http.Request) { rt.serveRead(w, r, true) }

// serveRead is the one body of the two read routes: decode and
// validate, scatter to the owners of the window, gather the answers,
// merge by (distance, id), respond. A /nearest body asks the query at
// radius 0 with N = k and goes to the partitions as that /query; both
// answer a QueryResponse, and only /query inlines an ?explain=1 trace.
func (rt *Router) serveRead(w http.ResponseWriter, r *http.Request, nearest bool) {
	sc := rt.getGather()
	defer rt.putGather(sc)
	var err error
	if sc.in, err = server.ReadBody(sc.in[:0], r.Body, 1<<16); err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	name, req := "query", server.QueryRequest{}
	if nearest {
		name = "nearest"
		var nr server.NearestRequest // scoped here: one outside the branch escapes on every /query
		err = server.DecodeNearestRequest(sc.in, &nr)
		req = nr.Question()
	} else {
		err = server.DecodeQueryRequest(sc.in, &req)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "json: %v", err)
		return
	}
	if err := req.Query.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	explain := !nearest && r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1"
	max := req.MaxResults
	if max <= 0 {
		max = rt.cfg.DefaultMaxResults
	}
	req.MaxResults = max // partitions must rank under the same top-N
	trace := rt.traceID(r)
	start := time.Now()

	path := "/query"
	if explain {
		path = "/query?explain=1"
	}
	sc.body, err = server.AppendQueryRequest(sc.body[:0], &req)
	if err == nil {
		err = sc.req.Render(path, trace, sc.body)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	owners := rt.topo.OwnersForQuery(req.StartMillis, req.EndMillis)
	rt.scatter(r.Context(), sc, owners)
	if !rt.answers(w, sc, name, trace) {
		return
	}

	sc.merged = query.MergeRanked(sc.merged[:0], sc.lists, max)
	if sc.merged == nil {
		sc.merged = []query.Ranked{}
	}
	var tr *obs.QueryTrace
	if explain {
		tr = obs.NewQueryTrace(trace)
		tr.SetQuery(fmt.Sprintf("cluster center=(%.6f,%.6f) r=%.0fm t=[%d,%d] top=%d fanout=%d",
			req.Center.Lat, req.Center.Lng, req.RadiusMeters, req.StartMillis, req.EndMillis, max, len(owners)))
		for i := range sc.legs {
			if pt := sc.legs[i].answer.Trace; pt != nil {
				// The routed trace's index cost is the sum over partitions.
				// Each partition's walk is bounded by its own top N, so the
				// sum can exceed what one node holding everything visits.
				tr.AddIndexVisit(pt.NodesVisited, pt.LeafEntriesScanned)
			}
		}
		tr.Finish(nil)
	}
	if rt.logOn {
		rt.log.Info(name, "fanout", len(owners), "hits", len(sc.merged), "traceID", trace)
	}
	resp := server.QueryResponse{Results: sc.merged, ElapsedMicros: time.Since(start).Microseconds(), TraceID: trace, Trace: tr}
	sc.out, err = server.AppendQueryResponse(sc.out[:0], &resp)
	server.WriteJSON(w, sc.out, err)
}

func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	u, _, ok := server.ReadUpload(w, r, server.DefaultMaxUploadBytes)
	if !ok {
		return
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
	respondJSON(w, rt.topo)
}
