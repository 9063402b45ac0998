// Package server implements the cloud side of the retrieval system
// (Section II): it accepts representative-FoV uploads from providers,
// maintains the spatio-temporal index, and answers inquirers' ranked
// range queries. The prototype paper ran this as a Java service; here it
// is a net/http server speaking the binary upload format of package wire
// and JSON queries.
//
// Endpoints:
//
//	POST /upload  — body: wire binary (application/octet-stream; a JSON
//	                body is refused with 415). Registers every
//	                representative; responds with the assigned ids.
//	POST /query   — body: JSON query.Query (+ optional maxResults).
//	                Responds with the ranked result list; ?explain=1
//	                additionally inlines the full query trace.
//	POST /nearest — body: JSON NearestRequest; the k nearest segments
//	                that cover the point: /query at radius 0 with N = k,
//	                answered with the same QueryResponse.
//	GET  /stats   — index size, per-provider counts, traffic totals.
//	POST /forget?provider=P — removes every segment of provider P.
//	POST /checkpoint        — checkpoints the durable store now.
//	GET  /replicate         — the replication protocol (package replica).
//	GET  /metrics — Prometheus text-format exposition of the registry.
//	GET  /healthz — liveness: uptime and build info, text/plain.
//	GET  /debug/traces      — tail-sampled query traces (every errored
//	                          query, every slow one, 1-in-N of the rest).
//	GET  /debug/traces/{id} — one retained trace by id.
//
// Those 11 routes are all Handler serves. Each is registered with its
// method, so the mux answers any other method with 405 and an Allow
// header naming the right one (HEAD is served as GET). State enters a
// server only through uploads, the durable store it boots from
// (Config.Store) and replication; it leaves only through queries and
// replication. Lock contention has no route here; it is read from the
// runtime's mutex and block profiles on fovserver -debug-addr.
//
// A refused write answers with a status that says what to do next:
//
//	400 — the request cannot succeed as sent: a body that does not decode,
//	      an empty provider, an entry the store will not encode.
//	409 — a read replica; the JSON ErrorResponse names the leader.
//	413 — an upload body over Config.MaxUploadBytes.
//	415 — a JSON upload; uploads are wire binary only.
//	421 — an upload holding a representative another partition owns.
//	503 — the store cannot journal (a sticky write or fsync failure, a
//	      closed store); /healthz is failing too, and clients retry it.
//	507 — the upload's ids would pass this server's id span.
//
// Every request is counted and timed per endpoint and status code in the
// observability registry (package obs), and logged through a structured
// slog logger with a per-request id. Each query additionally carries a
// request-scoped obs.QueryTrace through context.Context into the
// retrieval pipeline; queries slower than Config.SlowQueryThreshold are
// logged with their trace id and per-stage breakdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/replica"
	"fovr/internal/rtree"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// Config tunes the service.
type Config struct {
	// Camera is the viewing geometry used by the ranker.
	Camera fov.Camera
	// DefaultMaxResults caps query responses when the querier does not
	// ask for a specific N. Zero means 20.
	DefaultMaxResults int
	// MaxUploadBytes bounds upload bodies. Zero means
	// DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// IndexKind and ShardWindow are ignored; they stay only because
	// bench/ still sets them.
	IndexKind   string
	ShardWindow time.Duration
	// Logger receives structured request-level diagnostics; nil silences
	// them.
	Logger *slog.Logger
	// Registry receives the server's metrics (request counts/latency,
	// index gauges, R-tree counters, byte totals). Nil selects
	// obs.Default, which is what a single-server process wants: the
	// /metrics endpoint then also exposes client- and segmenter-side
	// metrics recorded elsewhere in the process.
	Registry *obs.Registry
	// SlowQueryThreshold marks queries at or above this duration as
	// slow: they are logged with their trace id and stage breakdown and
	// always retained in the trace store. Zero selects 100ms; negative
	// disables slow-query handling.
	SlowQueryThreshold time.Duration
	// TraceSampleRate keeps the trace of 1 in N ordinary queries (in
	// addition to every errored and every slow one) so /debug/traces
	// always shows normal behaviour to compare against. Zero selects
	// 16; negative disables sampling.
	TraceSampleRate int
	// Store journals every state change (uploads and removals) before it
	// is acknowledged, and supplies the recovered state at boot. Nil
	// selects store.NewMem(), the non-durable no-op that preserves the
	// server's historical in-memory behavior; pass a store.Disk (see
	// fovserver -data-dir) for ingest that survives a process kill.
	Store store.Store
	// ReadOnly makes the server a read replica: Register and
	// ForgetProvider fail with ErrReadOnly (HTTP 409 naming LeaderURL),
	// while the Apply* and bootstrap paths driven by the replication
	// follower remain open. Set by fovserver -replica-of.
	ReadOnly bool
	// LeaderURL names the writable leader in read-only rejections and on
	// /stats.
	LeaderURL string
	// IDBase offsets the segment-id sequence this server assigns: the
	// first id handed out is IDBase+1, the last IDBase+index.IDSpan, and
	// an upload past it is refused. A partitioned cluster gives each
	// partition a disjoint base (cluster.Topology.IDBase derives
	// partition-index·IDSpan from the topology) so ids stay globally
	// unique without cross-node coordination.
	IDBase uint64
	// OwnsRep, when non-nil, guards ingest against misrouted uploads: a
	// representative it rejects fails the whole upload with
	// ErrMisdirected (HTTP 421). Cluster deployments wire it from the
	// topology file; nil accepts everything (single-node serving).
	OwnsRep func(rep segment.Representative) error
}

func (c Config) withDefaults() Config {
	if c.Camera == (fov.Camera{}) {
		c.Camera = fov.DefaultCamera
	}
	if c.DefaultMaxResults == 0 {
		c.DefaultMaxResults = 20
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	if c.Store == nil {
		c.Store = store.NewMem()
	}
	return c
}

// IndexKindSharded stays only because bench/ still sets Config.IndexKind
// to it; the field is ignored.
const IndexKindSharded = "sharded"

// ErrIDSpanExhausted marks an upload whose ids would pass the server's
// last id, IDBase+index.IDSpan (HTTP 507): no retry can succeed.
var ErrIDSpanExhausted = errors.New("id span exhausted")

// Server is the cloud service. Create with New, wire into an http.Server
// via Handler, or use ListenAndServe/Serve.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	logOn   bool // a logger is configured; off skips building log fields
	idx     *index.RTree
	store   store.Store
	traffic wire.TrafficMeter
	traces  *obs.TraceStore // tail-sampled query traces (/debug/traces)
	health  *obs.HealthSet  // component health checkers (/healthz)

	reqSeq      atomic.Uint64 // per-request ids for log correlation
	requests    atomic.Int64  // total HTTP requests served (Stats)
	rollbacks   *obs.Counter  // uploads rolled back mid-insert
	slowQueries *obs.Counter  // queries at/over SlowQueryThreshold

	mu       sync.Mutex
	nextID   uint64
	started  time.Time
	follower *replica.Follower // replication status source (read replicas)
}

// New constructs a server, or fails on invalid configuration. When the
// configured store holds recovered entries (a durable store reopening
// its data directory), the index is bulk-built from them as the store
// reads them, so a restart resumes serving the committed state without
// any snapshot file.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Camera.Validate(); err != nil {
		return nil, err
	}
	idx, nextID, err := load(cfg.Camera.RadiusMeters, cfg.Store.Len(), cfg.Store.ReadEntries, max(cfg.IDBase, cfg.Store.HighID()))
	if err != nil {
		return nil, fmt.Errorf("server: load store: %w", err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		log:     logger,
		logOn:   cfg.Logger != nil,
		idx:     idx,
		store:   cfg.Store,
		nextID:  nextID,
		started: time.Now(),
	}
	// Each retention ring holds the trace store's default 256 traces.
	s.traces = obs.NewTraceStore(obs.TraceStoreConfig{
		SlowThreshold: cfg.SlowQueryThreshold,
		SampleRate:    cfg.TraceSampleRate,
	})
	s.rollbacks = s.reg.Counter("fovr_upload_rollbacks_total")
	s.slowQueries = s.reg.Counter("fovr_slow_queries_total")
	obs.RegisterRuntimeMetrics(s.reg)
	s.registerMetrics()
	s.health = obs.NewHealthSet()
	s.registerHealthChecks()
	return s, nil
}

// Close does nothing: a Server runs no background work of its own, and
// the store's lifetime belongs to whoever opened it. It stays because
// the end-to-end benchmark module (bench/) pairs every New with it.
func (s *Server) Close() {}

// registerMetrics installs the live gauges and pass-through counters that
// read server state at scrape time. Func registration replaces any prior
// owner of the name, so re-creating a server against a shared registry
// (tests, obs.Default) re-points the readings at the newest instance.
func (s *Server) registerMetrics() {
	s.reg.GaugeFunc("fovr_index_entries", func() float64 { return float64(s.index().Len()) })
	s.reg.GaugeFunc("fovr_index_height", func() float64 { return float64(s.index().Height()) })
	s.reg.GaugeFunc("fovr_index_nodes", func() float64 { return float64(s.index().NodeCount()) })
	s.reg.GaugeFunc("fovr_uptime_seconds", s.reg.UptimeSeconds)
	s.reg.CounterFunc("fovr_net_received_bytes_total", func() float64 { return float64(s.traffic.Received()) })
	s.reg.CounterFunc("fovr_net_sent_bytes_total", func() float64 { return float64(s.traffic.Sent()) })
	treeStat := func(pick func(rtree.Stats) int64) func() float64 {
		return func() float64 { return float64(pick(s.index().TreeStats())) }
	}
	s.reg.CounterFunc("fovr_rtree_searches_total", treeStat(func(st rtree.Stats) int64 { return st.Searches }))
	s.reg.CounterFunc("fovr_rtree_node_visits_total", treeStat(func(st rtree.Stats) int64 { return st.NodeVisits }))
	s.reg.CounterFunc("fovr_rtree_leaf_entries_scanned_total", treeStat(func(st rtree.Stats) int64 { return st.LeafEntriesScanned }))
	s.reg.CounterFunc("fovr_rtree_inserts_total", treeStat(func(st rtree.Stats) int64 { return st.Inserts }))
	s.reg.CounterFunc("fovr_rtree_deletes_total", treeStat(func(st rtree.Stats) int64 { return st.Deletes }))
	s.reg.CounterFunc("fovr_rtree_reinserts_total", treeStat(func(st rtree.Stats) int64 { return st.Reinserts }))
	s.reg.CounterFunc("fovr_rtree_splits_total", treeStat(func(st rtree.Stats) int64 { return st.Splits }))
	s.reg.CounterFunc("fovr_query_traces_observed_total", func() float64 { return float64(s.traces.Stats().Observed) })
	s.reg.CounterFunc("fovr_query_traces_kept_total", func() float64 { return float64(s.traces.Stats().Kept()) })
}

// index returns the current index under the state lock — FinishBootstrap
// may replace it, and metric callbacks read from scrape goroutines.
func (s *Server) index() *index.RTree {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx
}

// Index exposes the underlying index (benchmarks and tests).
func (s *Server) Index() *index.RTree { return s.index() }

// Traffic exposes the server-side byte counters. The same totals are
// exported through the registry as fovr_net_{received,sent}_bytes_total.
func (s *Server) Traffic() *wire.TrafficMeter { return &s.traffic }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Register adds an upload directly (the in-process fast path used by
// simulations that skip HTTP). It returns the assigned segment ids.
//
// An upload is all-or-nothing: the whole batch goes through the index's
// InsertBatch, which takes the tree lock once and publishes once, and a
// failure anywhere journals a compensating removal. An upload with no
// representatives changes nothing: it assigns no id and journals
// nothing.
func (s *Server) Register(u wire.Upload) ([]uint64, error) {
	return s.RegisterTraced(u, "")
}

// RegisterTraced is Register with an originating trace ID: the journal
// record is stamped with it, so a replica applying the shipped record
// can attribute the apply to this request. Empty trace is exactly
// Register.
func (s *Server) RegisterTraced(u wire.Upload, trace string) ([]uint64, error) {
	if s.cfg.ReadOnly {
		return nil, s.readOnlyErr("upload")
	}
	if u.Provider == "" {
		return nil, errors.New("server: empty provider")
	}
	if s.cfg.OwnsRep != nil {
		// All-or-nothing, like the insert itself: one misrouted
		// representative rejects the whole upload before any id is
		// assigned or journaled, so the router can resubmit the exact
		// batch elsewhere without partial state here.
		for i, rep := range u.Reps {
			if err := s.cfg.OwnsRep(rep); err != nil {
				return nil, fmt.Errorf("server: rep %d: %w: %v", i, ErrMisdirected, err)
			}
		}
	}
	if len(u.Reps) == 0 {
		return []uint64{}, nil
	}
	ids := make([]uint64, 0, len(u.Reps))
	entries := make([]index.Entry, 0, len(u.Reps))
	s.mu.Lock()
	start := s.nextID
	// The last id must stay in (IDBase, IDBase+IDSpan]: past it lies the
	// next partition's range. Unsigned differences keep a wrap refused.
	if start+uint64(len(u.Reps))-1-s.cfg.IDBase > index.IDSpan {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: %w: %d ids from %d pass the last id %d", ErrIDSpanExhausted, len(u.Reps), start, s.cfg.IDBase+index.IDSpan)
	}
	s.nextID += uint64(len(u.Reps))
	idx := s.idx
	s.mu.Unlock()
	for i, rep := range u.Reps {
		e := index.Entry{ID: start + uint64(i), Provider: u.Provider, Rep: rep, Camera: u.Camera}
		ids = append(ids, e.ID)
		entries = append(entries, e)
	}
	// Journal before inserting: once the batch is in the index a
	// concurrent ForgetProvider can observe it and journal a removal,
	// and that removal must not precede this registration in the log —
	// replaying them out of order would resurrect forgotten entries.
	if err := s.store.AppendRegisterTraced(entries, trace); err != nil {
		s.rollbacks.Inc()
		return nil, fmt.Errorf("server: journal upload: %w", err)
	}
	if err := idx.InsertBatch(entries); err != nil {
		// Compensate the journal entry; replay treats a removal of a
		// never-inserted id as a no-op, so this is safe even if the
		// record pair straddles a checkpoint.
		if serr := s.store.AppendRemoveTraced(ids, trace); serr != nil {
			s.log.Error("journal rollback failed; store may resurrect a rolled-back upload",
				"provider", u.Provider, "err", serr)
		}
		s.rollbacks.Inc()
		return nil, fmt.Errorf("server: %w", err)
	}
	return ids, nil
}

// Query answers a retrieval request directly (in-process fast path).
func (s *Server) Query(q query.Query, maxResults int) ([]query.Ranked, error) {
	return s.QueryCtx(context.Background(), q, maxResults)
}

// QueryCtx is Query threaded through context.Context, so a caller that
// attached an obs.QueryTrace (see obs.WithTrace) gets the per-stage
// events and timings of this one retrieval recorded into it.
func (s *Server) QueryCtx(ctx context.Context, q query.Query, maxResults int) ([]query.Ranked, error) {
	if maxResults <= 0 {
		maxResults = s.cfg.DefaultMaxResults
	}
	return query.SearchCtx(ctx, s.index(), q, query.Options{
		Camera:     s.cfg.Camera,
		MaxResults: maxResults,
	})
}

// Traces exposes the server's tail-sampled trace store.
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// load builds the serving index from the entries read streams, n of
// them (an estimate is fine), its keys sized against the deployment
// camera's radius of view, and returns it with the id sequence's next
// id: past floor and past every id read. The server's boot and a
// follower's bootstrap finish share it.
func load(radius float64, n int, read func(sink func(*index.Entry) error) error, floor uint64) (*index.RTree, uint64, error) {
	idx, err := index.BulkLoadRTree(radius, n, func(add func(*index.Entry) error) error {
		return read(func(e *index.Entry) error {
			floor = max(floor, e.ID)
			return add(e)
		})
	})
	return idx, floor + 1, err
}

// ratchetIDsLocked moves the id sequence past every id of entries (s.mu
// held).
func (s *Server) ratchetIDsLocked(entries []index.Entry) {
	for _, e := range entries {
		if e.ID >= s.nextID {
			s.nextID = e.ID + 1
		}
	}
}

// Handler returns the HTTP API. A request with a method its route does
// not name gets the mux's 405 before instrument counts it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /upload", s.instrument("/upload", s.handleUpload))
	mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("POST /nearest", s.instrument("/nearest", s.handleNearest))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("POST /forget", s.instrument("/forget", s.handleForget))
	mux.HandleFunc("POST /checkpoint", s.instrument("/checkpoint", s.handleCheckpoint))
	mux.HandleFunc("GET /replicate", s.instrument("/replicate", s.handleReplicate))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.reg.ServeHTTP))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /debug/traces", s.instrument("/debug/traces", s.handleTraces))
	// The metric label elides the {id} wildcard: label values share the
	// metric-name character set, which excludes braces.
	mux.HandleFunc("GET /debug/traces/{id}", s.instrument("/debug/traces/:id", s.handleTraceByID))
	return mux
}

type ctxKey int

const requestLoggerKey ctxKey = 0

// statusWriter captures the response status and size for metrics, and
// carries the request's id to traceID.
type statusWriter struct {
	http.ResponseWriter
	reqID uint64
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument wraps a handler with per-endpoint request counting, latency
// timing, and — when a logger is configured — structured request logging
// under the request's id. Without a logger nothing else request-scoped
// is built.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram(fmt.Sprintf("fovr_http_request_seconds{endpoint=%q}", endpoint))
	codeCounter := func(code int) *obs.Counter {
		return s.reg.Counter(fmt.Sprintf("fovr_http_requests_total{endpoint=%q,code=\"%d\"}", endpoint, code))
	}
	ok200 := codeCounter(http.StatusOK)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, reqID: s.reqSeq.Add(1)}
		start := time.Now()
		var reqLog *slog.Logger
		if s.logOn {
			reqLog = s.log.With("reqID", sw.reqID, "endpoint", endpoint)
			r = r.WithContext(context.WithValue(r.Context(), requestLoggerKey, reqLog))
		}
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(start)
		s.requests.Add(1)
		if sw.code == http.StatusOK {
			ok200.Inc()
		} else {
			codeCounter(sw.code).Inc()
		}
		hist.Observe(elapsed.Seconds())
		if s.logOn {
			reqLog.Info("request",
				"method", r.Method,
				"status", sw.code,
				"bytesOut", sw.bytes,
				"elapsedMicros", elapsed.Microseconds(),
			)
		}
	}
}

// reqLog returns the request-scoped logger installed by instrument, or
// the server logger for direct handler invocations (tests).
func (s *Server) reqLog(r *http.Request) *slog.Logger {
	if l, ok := r.Context().Value(requestLoggerKey).(*slog.Logger); ok {
		return l
	}
	return s.log
}

// TraceHeader carries a trace ID across process boundaries: a client
// stamps its upload with one, the leader journals it into the WAL
// record, and a follower's apply trace names it as Origin — so
// /debug/traces on either side resolves the same ID.
const TraceHeader = "X-Fovr-Trace"

// MaxTraceIDLen is the longest propagated trace id a server adopts (and
// echoes in its answer); a longer one is replaced by a minted id.
const MaxTraceIDLen = 128

// traceID returns the caller-propagated trace id (TraceHeader) when
// present and at most MaxTraceIDLen bytes; otherwise it derives one
// from the request id instrument put on the response writer, so trace
// and log records correlate. Direct handler invocations (tests) fall
// back to the request sequence.
func (s *Server) traceID(w http.ResponseWriter, r *http.Request) string {
	if id := r.Header.Get(TraceHeader); id != "" && len(id) <= MaxTraceIDLen {
		return id
	}
	if sw, ok := w.(*statusWriter); ok {
		return "q" + strconv.FormatUint(sw.reqID, 10)
	}
	return "q" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// UploadResponse acknowledges an upload.
type UploadResponse struct {
	IDs []uint64 `json:"ids"`
	// TraceID names the ingest trace this upload ran under (the
	// client-propagated TraceHeader value, or a server-minted id).
	TraceID string `json:"traceID,omitempty"`
}

// DefaultMaxUploadBytes bounds an upload body when Config.MaxUploadBytes
// is zero, and bounds every upload the cluster router reads.
const DefaultMaxUploadBytes = 8 << 20

// ReadUpload reads and decodes the wire-binary body of POST /upload, at
// most limit bytes, for a server and a router alike. It answers a JSON
// content type with 415, a longer body with 413 and a body that does not
// read or decode with 400, and then returns ok false. n is the body's
// length once it was read whole.
func ReadUpload(w http.ResponseWriter, r *http.Request, limit int64) (u wire.Upload, n int, ok bool) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		httpError(w, http.StatusUnsupportedMediaType, "upload body must be wire binary (application/octet-stream)")
		return u, 0, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return u, 0, false
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", limit)
		return u, 0, false
	}
	if u, err = wire.DecodeBinary(body); err != nil {
		httpError(w, http.StatusBadRequest, "decode: %v", err)
		return u, len(body), false
	}
	return u, len(body), true
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	u, n, ok := ReadUpload(w, r, s.cfg.MaxUploadBytes)
	s.traffic.AddReceived(n)
	if !ok {
		return
	}
	// Every upload runs under a trace id — caller-propagated via
	// TraceHeader or derived from the request id — which is journaled
	// into the WAL record so a replica's apply can name it. The ingest
	// trace itself is retained only for propagated ids: those callers
	// asked to follow the request across processes.
	trace := s.traceID(w, r)
	propagated := r.Header.Get(TraceHeader) != ""
	var tr *obs.QueryTrace
	if propagated {
		tr = obs.NewQueryTrace(trace)
		tr.SetQuery(fmt.Sprintf("upload provider=%s reps=%d", u.Provider, len(u.Reps)))
	}
	ids, err := s.RegisterTraced(u, trace)
	if propagated {
		tr.Finish(err)
		s.traces.Keep(tr)
	}
	if err != nil {
		s.refuse(w, err, http.StatusBadRequest)
		return
	}
	s.reqLog(r).Info("upload", "provider", u.Provider, "reps", len(u.Reps), "bytesIn", n, "traceID", trace)
	s.respondJSON(w, UploadResponse{IDs: ids, TraceID: trace})
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	query.Query
	MaxResults int `json:"maxResults,omitempty"`
}

// QueryResponse is the ranked result list.
type QueryResponse struct {
	Results []query.Ranked `json:"results"`
	// ElapsedMicros is the server-side search time, reported so clients
	// can observe the sub-100 ms claim directly.
	ElapsedMicros int64 `json:"elapsedMicros"`
	// TraceID names this query's trace; GET /debug/traces/{id} returns
	// it while it remains retained in the tail-sampling store.
	TraceID string `json:"traceID,omitempty"`
	// Trace is the full inline trace, present when the request asked
	// for it with ?explain=1.
	Trace *obs.QueryTrace `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request)   { s.serveRead(w, r, false) }
func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) { s.serveRead(w, r, true) }

// serveRead is the one body of the two read routes: decode, the traced
// QueryCtx, the trace store, the slow-query log, encode. A /nearest body
// asks the query at radius 0 with N = k; both answer a QueryResponse,
// and only /query inlines an ?explain=1 trace.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, nearest bool) {
	sc := getReadScratch()
	defer putReadScratch(sc)
	var err error
	if sc.in, err = ReadBody(sc.in[:0], r.Body, 1<<16); err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	s.traffic.AddReceived(len(sc.in))
	name, req := "query", QueryRequest{}
	if nearest {
		name = "nearest"
		var nr NearestRequest
		err = DecodeNearestRequest(sc.in, &nr)
		req = nr.Question()
	} else {
		err = DecodeQueryRequest(sc.in, &req)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "json: %v", err)
		return
	}
	explain := !nearest && r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1"

	// Every query is traced; the tail-sampling store decides afterwards
	// whether the trace is worth keeping (errored, slow, or sampled). The
	// label is rendered only for a trace somebody will read.
	tr := obs.NewQueryTrace(s.traceID(w, r))
	label := func() string {
		return fmt.Sprintf("%s center=(%.6f,%.6f) r=%.0fm t=[%d,%d] top=%d", name,
			req.Center.Lat, req.Center.Lng, req.RadiusMeters, req.StartMillis, req.EndMillis, req.MaxResults)
	}
	if explain {
		tr.SetQuery(label())
	}
	results, err := s.QueryCtx(obs.WithTrace(r.Context(), tr), req.Query, req.MaxResults)
	total := tr.Finish(err)
	s.traces.ObserveLabeled(tr, label)
	s.logSlowQuery(r, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if results == nil {
		results = []query.Ranked{}
	}
	if s.logOn {
		s.reqLog(r).Info(name,
			"center", fmt.Sprint(req.Center),
			"radiusMeters", req.RadiusMeters,
			"startMillis", req.StartMillis,
			"endMillis", req.EndMillis,
			"hits", len(results),
			"traceID", tr.ID,
		)
	}
	resp := QueryResponse{Results: results, ElapsedMicros: total.Microseconds(), TraceID: tr.ID}
	if explain {
		resp.Trace = tr
	}
	sc.out, err = AppendQueryResponse(sc.out[:0], &resp)
	s.writeJSON(w, sc.out, err)
}

// logSlowQuery emits the slow-query log line: one Warn record carrying
// the trace id, the stage breakdown, and the work counters, so a slow
// query is diagnosable from the log alone.
func (s *Server) logSlowQuery(r *http.Request, tr *obs.QueryTrace) {
	th := s.traces.SlowThreshold()
	if th <= 0 || tr.Total() < th {
		return
	}
	s.slowQueries.Inc()
	s.reqLog(r).Warn("slow query",
		"traceID", tr.ID,
		"totalMicros", tr.Total().Microseconds(),
		"stages", tr.StageSummary(),
		"nodesVisited", tr.NodesVisited,
		"entriesScanned", tr.LeafEntriesScanned,
		"candidates", tr.Candidates,
		"dropped", tr.DropsTotal,
		"returned", tr.Returned,
		"query", tr.Query,
	)
}

// TracesResponse is the body of GET /debug/traces: the store's
// configuration and admission counters plus the retained traces,
// newest first.
type TracesResponse struct {
	SlowThresholdMillis float64             `json:"slowThresholdMillis"`
	SampleRate          int                 `json:"sampleRate"`
	Stats               obs.TraceStoreStats `json:"stats"`
	Traces              []*obs.QueryTrace   `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.traces.Traces()
	if traces == nil {
		traces = []*obs.QueryTrace{}
	}
	s.respondJSON(w, TracesResponse{
		SlowThresholdMillis: float64(s.traces.SlowThreshold()) / float64(time.Millisecond),
		SampleRate:          s.traces.SampleRate(),
		Stats:               s.traces.Stats(),
		Traces:              traces,
	})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.Get(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "no retained trace %q (evicted or never kept)", id)
		return
	}
	s.respondJSON(w, t)
}

// Stats reports service state. Every number is also exported in
// Prometheus form at /metrics; this JSON endpoint is the human- and
// script-friendly summary of the same registry-backed sources.
type Stats struct {
	Segments      int            `json:"segments"`
	Providers     map[string]int `json:"providers"`
	IndexHeight   int            `json:"indexHeight"`
	BytesIn       int64          `json:"bytesIn"`
	BytesOut      int64          `json:"bytesOut"`
	Requests      int64          `json:"requests"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	// Durable reports whether ingest is journaled to disk (fovserver
	// -data-dir) or held only in memory.
	Durable bool `json:"durable"`
	// ReadOnly reports whether this process is a read replica
	// (fovserver -replica-of); Leader then names the writable leader.
	ReadOnly bool   `json:"readOnly,omitempty"`
	Leader   string `json:"leader,omitempty"`
	// Replication is the follower's live status (cursor, lag, error
	// counters); only present on a read replica.
	Replication *replica.Status `json:"replication,omitempty"`
	// Storage is the durable store's tiers (segments, memtable,
	// tombstones); only present with -data-dir.
	Storage *store.TieredStats `json:"storage,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	idx := s.index()
	s.respondJSON(w, Stats{
		Segments:      idx.Len(),
		Providers:     idx.Providers(),
		IndexHeight:   idx.Height(),
		BytesIn:       s.traffic.Received(),
		BytesOut:      s.traffic.Sent(),
		Requests:      s.requests.Load(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Durable:       s.store.Durable(),
		ReadOnly:      s.cfg.ReadOnly,
		Leader:        s.cfg.LeaderURL,
		Replication:   s.replicationStatus(),
		Storage:       s.storageStats(),
	})
}

// storageStats returns the durable store's tiers for /stats, or nil on
// a non-durable store.
func (s *Server) storageStats() *store.TieredStats {
	d, ok := s.store.(*store.Disk)
	if !ok {
		return nil
	}
	ts := d.TieredStats()
	return &ts
}

// CheckpointResponse acknowledges POST /checkpoint.
type CheckpointResponse struct {
	Entries       int   `json:"entries"`
	ElapsedMicros int64 `json:"elapsedMicros"`
}

// handleCheckpoint persists the full state and truncates the WAL on
// demand (fovctl checkpoint) — useful before a planned restart, so boot
// recovery loads one file instead of replaying the whole log.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.store.Checkpoint(); err != nil {
		if errors.Is(err, store.ErrNotDurable) {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	elapsed := time.Since(start)
	s.reqLog(r).Info("checkpoint", "entries", s.index().Len(), "elapsed", elapsed)
	s.respondJSON(w, CheckpointResponse{
		Entries:       s.index().Len(),
		ElapsedMicros: elapsed.Microseconds(),
	})
}

func (s *Server) respondJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	s.writeJSON(w, data, err)
}

// writeJSON is WriteJSON plus the traffic meter.
func (s *Server) writeJSON(w http.ResponseWriter, data []byte, err error) {
	if err == nil {
		s.traffic.AddSent(len(data))
	}
	WriteJSON(w, data, err)
}

var jsonContentType = []string{"application/json"}

// WriteJSON sends an encoded 200 answer, or the 500 its encoding failed
// with. The length is stated so that answers past net/http's 2 KB sniff
// buffer are not chunk-framed.
func WriteJSON(w http.ResponseWriter, data []byte, err error) {
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal: %v", err)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(data))}
	_, _ = w.Write(data)
}

// readScratch holds the body and the answer of one /query or /nearest
// request; both buffers are reused across requests.
type readScratch struct{ in, out []byte }

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

func getReadScratch() *readScratch { return readScratchPool.Get().(*readScratch) }

func putReadScratch(sc *readScratch) {
	if cap(sc.out) <= 1<<18 { // the buffers of an unusually large answer are let go
		readScratchPool.Put(sc)
	}
}

// writeJSONBody marshals v onto a response whose status line is already
// committed (non-200 JSON bodies), so marshal failures can only be
// swallowed.
func (s *Server) writeJSONBody(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.traffic.AddSent(len(data))
	_, _ = w.Write(data)
}

// refuse answers a refused upload or forget with the status its error
// names (see the package comment); any other error gets fallback.
func (s *Server) refuse(w http.ResponseWriter, err error, fallback int) {
	code := fallback
	switch {
	case errors.Is(err, ErrReadOnly):
		s.respondError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrMisdirected):
		code = http.StatusMisdirectedRequest
	case errors.Is(err, store.ErrFailed), errors.Is(err, store.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrIDSpanExhausted):
		code = http.StatusInsufficientStorage
	}
	httpError(w, code, "%v", err)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// HTTPServer returns a production-configured http.Server for the API:
// bounded header/read/write timeouts so a stalled client cannot pin a
// connection forever. The caller owns Serve/Shutdown.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve runs the HTTP API on the listener until it is closed.
func (s *Server) Serve(l net.Listener) error {
	return s.HTTPServer().Serve(l)
}

// ListenAndServe runs the HTTP API on addr until the process exits.
func (s *Server) ListenAndServe(addr string) error {
	srv := s.HTTPServer()
	srv.Addr = addr
	return srv.ListenAndServe()
}

// ForgetProvider removes every segment a provider has contributed — the
// opt-out the paper's privacy motivation implies a deployment must offer.
// It returns the number of segments removed.
//
// Forget is one RemoveWhere, journal first like Register: the removal
// is journaled under the index's writer lock, and if the journal refuses
// it nothing is removed and the error is returned, so a restart can
// never resurrect entries readers already saw forgotten. Readers see the
// provider's entries go in one publish.
func (s *Server) ForgetProvider(provider string) (int, error) {
	if s.cfg.ReadOnly {
		return 0, s.readOnlyErr("forget")
	}
	removed, err := s.index().RemoveWhere(func(e *index.Entry) bool { return e.Provider == provider }, s.store.AppendRemove)
	if err != nil {
		return 0, fmt.Errorf("server: journal forget: %w", err)
	}
	return removed, nil
}

func (s *Server) handleForget(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	if provider == "" {
		httpError(w, http.StatusBadRequest, "provider required")
		return
	}
	removed, err := s.ForgetProvider(provider)
	if err != nil {
		s.refuse(w, err, http.StatusInternalServerError)
		return
	}
	s.reqLog(r).Info("forget", "provider", provider, "removed", removed)
	s.respondJSON(w, map[string]int{"removed": removed})
}
