package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// This file is the traced run's analysis: per-layer metrics from the
// spans, from serial replays of the same requests, and from timed calls
// into each layer's public functions, plus the attribution table.

// --- span-side helpers ---------------------------------------------------

func spanUs(s *serverSpan) float64 { return float64(s.endNs-s.startNs) / 1e3 }

func (t *traced) clientUs() float64 { return float64(t.client.endNs-t.client.startNs) / 1e3 }

// outer is the outermost handler span: the router's, or the node's.
func (t *traced) outer() *serverSpan {
	if t.router != nil {
		return t.router
	}
	if len(t.servers) > 0 {
		return &t.servers[0]
	}
	return nil
}

func (t *traced) outerUs() float64 {
	if s := t.outer(); s != nil {
		return spanUs(s)
	}
	return 0
}

// nodeUs is the node handler's span; under the router, the mean over
// the partitions asked.
func (t *traced) nodeUs() float64 {
	if len(t.servers) == 0 {
		return 0
	}
	sum := 0.0
	for i := range t.servers {
		sum += spanUs(&t.servers[i])
	}
	return sum / float64(len(t.servers))
}

func kindIs(kinds ...int) func(*traced) bool {
	return func(t *traced) bool {
		for _, k := range kinds {
			if t.client.kind == k {
				return true
			}
		}
		return false
	}
}

// meanOf averages v over the elements keep accepts (all when nil).
func meanOf[T any](xs []T, keep func(*T) bool, v func(*T) float64) (float64, int) {
	sum, n := 0.0, 0
	for i := range xs {
		if keep == nil || keep(&xs[i]) {
			sum += v(&xs[i])
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// spanMetrics derives the client, server-handler and cluster metrics
// from the spans of the traced window.
func spanMetrics(ts []traced, cluster bool, res *result) {
	reads := kindIs(kindQuery, kindNearest)
	missing := 0
	for i := range ts {
		if ts[i].outer() == nil {
			missing++
		}
	}
	if missing > 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%d of %d traced requests have no handler span", missing, len(ts)))
	}
	v, n := meanOf(ts, reads, func(t *traced) float64 { return t.clientUs() - t.outerUs() })
	res.set("client.transport_self_us", v, n)
	v, n = meanOf(ts, kindIs(kindQuery), (*traced).nodeUs)
	res.set("server.query_handler_us", v, n)
	if v, n = meanOf(ts, kindIs(kindNearest), (*traced).nodeUs); n > 0 {
		res.set("server.nearest_handler_us", v, n)
	}
	if v, n = meanOf(ts, kindIs(kindUpload), (*traced).outerUs); n > 0 {
		res.set("server.upload_handler_us", v, n)
	}
	if !cluster {
		return
	}
	routerUs, n := meanOf(ts, reads, (*traced).outerUs)
	res.set("cluster.router_handler_us", routerUs, n)
	waitUs, _ := meanOf(ts, reads, func(t *traced) float64 { return float64(unionNs(t.servers)) / 1e3 })
	res.set("cluster.router_self_us", routerUs-waitUs, n)
	parts, np := 0.0, 0
	for i := range ts {
		for j := range ts[i].servers {
			parts += spanUs(&ts[i].servers[j])
			np++
		}
	}
	res.set("cluster.partition_handler_us", parts/float64(max(np, 1)), np)
	v, _ = meanOf(ts, reads, func(t *traced) float64 { return float64(len(t.servers)) })
	res.set("cluster.fanout_op", v, n)
	v, _ = meanOf(ts, reads, func(t *traced) float64 {
		slow := 0.0
		for i := range t.servers {
			slow = max(slow, spanUs(&t.servers[i]))
		}
		if total := t.outerUs(); total > 0 {
			return slow / total
		}
		return 0
	})
	res.set("cluster.slowest_partition_share", v, n)
}

// loadMetrics derives what the generator itself observed over both
// windows of the traced run.
func loadMetrics(plain, run *loadRun, res *result) {
	all := append(append([]op(nil), plain.ops...), run.ops...)
	isQuery := func(o *op) bool { return o.kind == kindQuery }
	if v, n := meanOf(all, isQuery, func(o *op) float64 { return float64(o.bytes) }); n > 0 {
		res.set("server.resp_bytes_op", v, n)
	}
	if late := append(append([]int64(nil), plain.lateNs...), run.lateNs...); len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		res.set("client.open_late_p99_us", float64(late[(len(late)*99+99)/100-1])/1e3, len(late))
	}
	worst, uploads := 0.0, 0
	for _, o := range all {
		if o.kind == kindUpload {
			worst, uploads = max(worst, float64(o.durNs)/1e6), uploads+1
		}
	}
	if uploads > 0 {
		res.set("store.upload_stall_max_ms", worst, uploads)
	}
	// Tracing overhead: the traced window's read rate against the
	// untraced window's of the same run.
	rate := func(r *loadRun) float64 {
		reads := 0
		for _, o := range r.ops {
			if o.kind != kindUpload {
				reads++
			}
		}
		return float64(reads) / r.window.Seconds()
	}
	if base := rate(plain); base > 0 {
		res.set("trace.overhead_pct", 100*(base-rate(run))/base, len(run.ops))
	}
}

// generatorFloor measures the load generator against a handler that
// does nothing: the round trip and rate no change to the program can
// beat on this host.
func generatorFloor(ctx context.Context, window time.Duration, res *result) error {
	var cl closers
	defer cl.close()
	reply := []byte(`{"results":[]}`)
	addr, err := listen(&cl, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	}))
	if err != nil {
		return err
	}
	d := &driver{
		w:    &workloadDef{},
		in:   &inputs{queries: []request{newRequest(kindQuery, []byte(`{}`))}},
		sys:  &system{addr: addr},
		prog: &progress{},
	}
	run, err := d.drive(ctx, window/10, window, nil)
	if err != nil {
		return err
	}
	lat := flatten(run.slices(kindQuery, window))
	res.set("client.null_rtt_us", p50(lat)*1000, len(lat))
	res.set("client.max_ops_s", float64(len(run.ops))/run.window.Seconds(), len(run.ops))
	return nil
}

// --- serial replay -------------------------------------------------------

// recorder is the in-memory http.ResponseWriter of the serial replays.
type recorder struct {
	hdr  http.Header
	code int
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(c int)           { r.code = c }
func (r *recorder) Write(b []byte) (int, error) { return len(b), nil }

// serveOnce runs one pre-marshalled request through a handler with no
// network, and returns the time inside ServeHTTP alone.
func serveOnce(h http.Handler, req *request) (time.Duration, error) {
	r, err := http.NewRequest(http.MethodPost, kindPath[req.kind], bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	if req.kind == kindUpload {
		r.Header.Set("Content-Type", "application/octet-stream")
	} else {
		r.Header.Set("Content-Type", "application/json")
	}
	rec := &recorder{hdr: http.Header{}}
	start := time.Now()
	h.ServeHTTP(rec, r)
	took := time.Since(start)
	if rec.code != 0 && rec.code != http.StatusOK {
		return 0, fmt.Errorf("replay %s: status %d", kindPath[req.kind], rec.code)
	}
	return took, nil
}

// allocsPerOp serves reqs through h and returns allocations and bytes
// per request, net of what the replay scaffolding itself allocates
// (measured against a handler that does nothing).
func allocsPerOp(h http.Handler, reqs []*request) (allocs, bytes float64, err error) {
	if len(reqs) == 0 {
		return 0, 0, nil
	}
	pass := func(h http.Handler) (float64, float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, req := range reqs {
			if _, err := serveOnce(h, req); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&after)
		n := float64(len(reqs))
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
	}
	baseC, baseB, _ := pass(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	c, b, err := pass(h)
	return c - baseC, b - baseB, err
}

// replayed holds the serial cost of one request on the node that was
// slowest for it (the only node outside the cluster).
type replayed struct {
	req        *request
	handlerUs  float64 // Handler().ServeHTTP on an in-memory recorder
	callUs     float64 // Server.QueryCtx or Server.Nearest
	indexUs    float64 // Index().Search on the padded rectangle; for /nearest, the whole call
	candidates int
	results    int
	visits     int64 // R-tree node visits of the index pass
	scanned    int64 // R-tree leaf entries scanned by the index pass
}

func (r *replayed) isQuery() bool { return r.req.kind == kindQuery }

// replayBudget bounds the handler pass of the serial replay; the two
// cheaper passes cover the same requests.
const replayBudget = 1500 * time.Millisecond

// replay serves the head of connection 0's request sequence one request
// at a time, in three separate passes so each pass sees the same cache
// state: through the HTTP handler, through the in-process query call,
// and through the index alone.
func replay(ctx context.Context, d *driver, limit int) ([]replayed, error) {
	pick := d.pick(0)
	handlers := make([]http.Handler, len(d.sys.nodes))
	for i, srv := range d.sys.nodes {
		handlers[i] = srv.Handler()
	}
	// owners are the partitions the router would ask.
	owners := func(req *request) []int {
		if d.sys.topo == nil {
			return []int{0}
		}
		var idx []int
		for _, p := range d.sys.topo.OwnersForQuery(req.q.StartMillis, req.q.EndMillis) {
			for i := range d.sys.topo.Partitions {
				if &d.sys.topo.Partitions[i] == p {
					idx = append(idx, i)
				}
			}
		}
		return idx
	}
	var (
		out     []replayed
		slowest []int
	)
	// Each pass starts from a collected heap, so a collection the
	// previous pass provoked is not billed to this one.
	runtime.GC()
	began := time.Now()
	for i := 0; i < limit && time.Since(began) < replayBudget; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r, slow := replayed{req: pick(i)}, 0
		for _, o := range owners(r.req) {
			took, err := serveOnce(handlers[o], r.req)
			if err != nil {
				return nil, err
			}
			if us := float64(took) / 1e3; us >= r.handlerUs {
				r.handlerUs, slow = us, o
			}
		}
		out, slowest = append(out, r), append(slowest, slow)
	}
	runtime.GC()
	for i := range out {
		r, srv := &out[i], d.sys.nodes[slowest[i]]
		var (
			rs  []query.Ranked
			err error
		)
		start := time.Now()
		if r.isQuery() {
			rs, err = srv.QueryCtx(ctx, r.req.q, 0)
		} else {
			rs, err = srv.Nearest(r.req.q.Center, r.req.q.StartMillis, r.req.q.EndMillis, r.req.k)
		}
		r.callUs = float64(time.Since(start)) / 1e3
		r.results = len(rs)
		if err != nil {
			return nil, err
		}
	}
	runtime.GC()
	for i := range out {
		r := &out[i]
		if !r.isQuery() {
			r.indexUs = r.callUs
			continue
		}
		q, idx := r.req.q, d.sys.nodes[slowest[i]].Index()
		before := idx.TreeStats()
		start := time.Now()
		cands := idx.Search(geo.RectAround(q.Center, q.RadiusMeters+camera.RadiusMeters), q.StartMillis, q.EndMillis)
		r.indexUs = float64(time.Since(start)) / 1e3
		after := idx.TreeStats()
		r.candidates = len(cands)
		r.visits = after.NodeVisits - before.NodeVisits
		r.scanned = after.LeafEntriesScanned - before.LeafEntriesScanned
	}
	return out, nil
}

// replayMetrics derives the server, query, index and rtree metrics from
// the serial replay; all are means over the replayed /query requests.
func replayMetrics(rp []replayed, d *driver, res *result) error {
	isQ := (*replayed).isQuery
	handler, n := meanOf(rp, isQ, func(r *replayed) float64 { return r.handlerUs })
	call, _ := meanOf(rp, isQ, func(r *replayed) float64 { return r.callUs })
	search, _ := meanOf(rp, isQ, func(r *replayed) float64 { return r.indexUs })
	res.set("server.query_http_self_us", handler-call, n)
	res.set("query.rank_self_us", call-search, n)
	res.set("index.search_us", search, n)
	if v, nn := meanOf(rp, func(r *replayed) bool { return !r.isQuery() }, func(r *replayed) float64 { return r.callUs }); nn > 0 {
		res.set("index.nearest_us", v, nn)
	}
	if handler > 0 {
		// Handler time under the two-connection load over the same
		// handler's time alone: waiting for a processor, a lock or the
		// collector shows as a ratio above one.
		res.set("server.contention_ratio", res.get("server.query_handler_us")/handler, n)
	}
	cands, _ := meanOf(rp, isQ, func(r *replayed) float64 { return float64(r.candidates) })
	results, _ := meanOf(rp, isQ, func(r *replayed) float64 { return float64(r.results) })
	res.set("query.candidates_op", cands, n)
	res.set("query.results_op", results, n)
	if cands > 0 {
		res.set("query.useful_ratio", results/cands, n)
	}
	v, _ := meanOf(rp, isQ, func(r *replayed) float64 { return float64(r.visits) })
	res.set("rtree.node_visits_op", v, n)
	v, _ = meanOf(rp, isQ, func(r *replayed) float64 { return float64(r.scanned) })
	res.set("rtree.leaf_scanned_op", v, n)
	height, nodes := 0, 0
	for _, srv := range d.sys.nodes {
		height = max(height, srv.Index().Height())
		nodes += srv.Index().NodeCount()
	}
	res.set("rtree.height", float64(height), 1)
	res.set("rtree.nodes", float64(nodes), 1)

	var queries []*request
	for i := range rp {
		if rp[i].isQuery() {
			queries = append(queries, rp[i].req)
		}
	}
	allocs, abytes, err := allocsPerOp(d.sys.nodes[0].Handler(), queries)
	if err != nil {
		return err
	}
	res.set("server.query_allocs_op", allocs, len(queries))
	res.set("server.query_bytes_op", abytes, len(queries))
	return nil
}

// --- attribution ---------------------------------------------------------

// row is one line of the attribution table, a mean in µs per request.
type row struct {
	layer string
	us    float64
}

// attribution is the mean-based account of where a request's time
// goes: the generator's and the router's self times from the spans of
// the loaded run, the program's layers from the serial replay. What the
// rows leave unexplained is the gap.
type attribution struct {
	title string
	e2eUs float64
	rows  []row
	notes []string
}

// Attribution row names.
const (
	rowTransport  = "client transport self"
	rowRouter     = "cluster router self"
	rowHTTP       = "server http self"
	rowRank       = "query rank self"
	rowIndex      = "index search"
	rowWireDecode = "wire decode"
	rowAppend     = "store append"
	rowInsert     = "index insert + register"
)

// gapTolerance is the attribution gap, in percent, above which the run
// reports a finding (ROADMAP aim 1).
const gapTolerance = 10.0

func (a *attribution) sumUs() float64 {
	s := 0.0
	for _, r := range a.rows {
		s += r.us
	}
	return s
}

func (a *attribution) gapPct() float64 {
	if a.e2eUs == 0 {
		return 0
	}
	gap := a.e2eUs - a.sumUs()
	if gap < 0 {
		gap = -gap
	}
	return 100 * gap / a.e2eUs
}

// share is the named rows' part of the end-to-end mean.
func (a *attribution) share(layers ...string) float64 {
	if a.e2eUs == 0 {
		return 0
	}
	s := 0.0
	for _, r := range a.rows {
		for _, l := range layers {
			if r.layer == l {
				s += r.us
			}
		}
	}
	return s / a.e2eUs
}

func (a *attribution) write(b *strings.Builder) {
	fmt.Fprintf(b, "%s\n", a.title)
	for _, r := range a.rows {
		fmt.Fprintf(b, "  %-30s %10.1f us  %5.1f %%\n", r.layer, r.us, 100*r.us/a.e2eUs)
	}
	fmt.Fprintf(b, "  %-30s %10.1f us\n", "sum of layer self times", a.sumUs())
	fmt.Fprintf(b, "  %-30s %10.1f us\n", "end-to-end mean (client span)", a.e2eUs)
	fmt.Fprintf(b, "  %-30s %10.1f %%\n", "attribution_gap_pct", a.gapPct())
	for _, n := range a.notes {
		fmt.Fprintf(b, "  %s\n", n)
	}
	b.WriteString("\n")
}

// readAttribution accounts for the read requests keepT/keepR select.
func readAttribution(title string, ts []traced, rp []replayed, keepT func(*traced) bool, keepR func(*replayed) bool, cluster bool) *attribution {
	a := &attribution{}
	var nt int
	a.e2eUs, nt = meanOf(ts, keepT, (*traced).clientUs)
	transport, _ := meanOf(ts, keepT, func(t *traced) float64 { return t.clientUs() - t.outerUs() })
	a.rows = append(a.rows, row{rowTransport, transport})
	nodeLoaded, _ := meanOf(ts, keepT, (*traced).outerUs)
	if cluster {
		wait, _ := meanOf(ts, keepT, func(t *traced) float64 { return float64(unionNs(t.servers)) / 1e3 })
		a.rows = append(a.rows, row{rowRouter, nodeLoaded - wait})
		nodeLoaded = wait
	}
	handler, nr := meanOf(rp, keepR, func(r *replayed) float64 { return r.handlerUs })
	call, _ := meanOf(rp, keepR, func(r *replayed) float64 { return r.callUs })
	idx, _ := meanOf(rp, keepR, func(r *replayed) float64 { return r.indexUs })
	a.rows = append(a.rows, row{rowHTTP, handler - call}, row{rowRank, call - idx}, row{rowIndex, idx})
	a.title = fmt.Sprintf("%s: mean us per request (%d traced under load, %d replayed serially)", title, nt, nr)
	what, routed := "node handler", 0.0
	if cluster {
		what = "slowest-partition wait (union of the partition handler spans)"
		routed = a.share(rowRouter) + nodeLoaded/a.e2eUs
	}
	a.notes = append(a.notes,
		fmt.Sprintf("%s under load %.1f us, its serial replay %.1f us: the gap is time the loaded run spent beyond the layers' own work", what, nodeLoaded, handler),
		fmt.Sprintf("shares: server+client %.2f, query+index %.2f, router self + slowest-partition wait %.2f",
			a.share(rowTransport, rowHTTP), a.share(rowRank, rowIndex), routed))
	return a
}

// analyse turns the traced window, the serial replays and timed calls
// into each layer's public functions into the per-layer metrics and the
// attribution table.
func analyse(ctx context.Context, d *driver, plain, run *loadRun, res *result, o runOpts) error {
	cluster := d.sys.topo != nil
	ts := joinSpans(run.spans, d.env.tr.take())
	spanMetrics(ts, cluster, res)
	loadMetrics(plain, run, res)
	if err := generatorFloor(ctx, min(time.Second, o.window/2), res); err != nil {
		return err
	}
	rp, err := replay(ctx, d, min(o.sz.replay, len(d.in.queries)))
	if err != nil {
		return err
	}
	if err := replayMetrics(rp, d, res); err != nil {
		return err
	}

	var text strings.Builder
	reads := readAttribution(d.w.name+" reads", ts, rp, kindIs(kindQuery, kindNearest), nil, cluster)
	reads.write(&text)
	gap := reads.gapPct()
	if len(d.in.nearest) > 0 {
		readAttribution(d.w.name+" /query only", ts, rp, kindIs(kindQuery), (*replayed).isQuery, cluster).write(&text)
	}
	ups, err := writePath(ctx, d, res, o)
	if err != nil {
		return err
	}
	if ups != nil {
		var n int
		ups.e2eUs, n = meanOf(ts, kindIs(kindUpload), (*traced).clientUs)
		transport, _ := meanOf(ts, kindIs(kindUpload), func(t *traced) float64 { return t.clientUs() - t.outerUs() })
		ups.rows = append([]row{{rowTransport, transport}}, ups.rows...)
		ups.title = fmt.Sprintf("%s uploads: mean us per %d-rep upload, send to answer (%d traced under load; %s)", d.w.name, o.sz.reps, n, ups.title)
		ups.notes = append(ups.notes, fmt.Sprintf("node handler under load %.1f us: the gap is the writer waiting behind the reader, the journal's fsync and compaction",
			res.get("server.upload_handler_us")))
		ups.write(&text)
		gap = max(gap, ups.gapPct())
	}
	res.set("attribution_gap_pct", gap, len(ts))
	if gap > gapTolerance {
		res.Findings = append(res.Findings, fmt.Sprintf("attribution gap %.1f %% exceeds %.0f %%: time under load is not explained by the layers' serial costs (see attribution-%s.txt)", gap, gapTolerance, d.w.name))
	}

	if o.outdir != "" {
		if err := os.MkdirAll(o.outdir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.outdir, "attribution-"+d.w.name+".txt"), []byte(text.String()), 0o644); err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(o.outdir, "trace-"+d.w.name+".jsonl"), ts); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// --- write path ----------------------------------------------------------

// scratchEntries bounds the index-insert measurement.
const scratchEntries = 50_000

// entriesOf gives an upload's reps ids from next upward.
func entriesOf(u *upload, next *uint64) []index.Entry {
	batch := make([]index.Entry, len(u.u.Reps))
	for j, rep := range u.u.Reps {
		batch[j] = index.Entry{ID: *next, Provider: u.u.Provider, Rep: rep}
		*next++
	}
	return batch
}

// writePath measures the write path's layers on a scratch node, away
// from the node under load: InsertBatch on the scratch server's index
// and, for workloads with a writer, the upload handler against
// Server.Register, the wire codec, and the journal append, on a scratch
// store with the workload's options. It returns the upload attribution,
// without its transport row, for workloads with a writer.
func writePath(ctx context.Context, d *driver, res *result, o runOpts) (*attribution, error) {
	var cl closers
	defer cl.close()
	cfg := nodeConfig()
	if d.sys.topo != nil {
		cfg.IndexKind, cfg.ShardWindow = server.IndexKindSharded, time.Hour
	}
	// Entries go into the index and the journal directly under ids 1,
	// 2, ...; the ids the scratch server assigns start far above them.
	cfg.IDBase = 1 << 40
	var disk *store.Disk
	if d.w.writer {
		dir, err := os.MkdirTemp(o.tmp, "fovr-bench-scratch-*")
		if err != nil {
			return nil, err
		}
		cl.add(func() { _ = os.RemoveAll(dir) })
		if disk, err = store.Open(durableOptions(dir)); err != nil {
			return nil, err
		}
		cl.add(func() { _ = disk.Close() })
		cfg.Store = disk
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	cl.add(srv.Close)

	idx := srv.Index()
	next, inserted := uint64(1), 0
	var insertNs time.Duration
	for i := 0; i < len(d.in.corpus) && inserted < scratchEntries; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		batch := entriesOf(&d.in.corpus[i], &next)
		start := time.Now()
		if err := idx.InsertBatch(batch); err != nil {
			return nil, err
		}
		insertNs += time.Since(start)
		inserted += len(batch)
	}
	res.set("index.insert_us_entry", float64(insertNs)/1e3/float64(max(inserted, 1)), inserted)
	if !d.w.writer {
		return nil, nil
	}

	// Uploads the writer never sent: a third through the handler, a
	// third through Register, a third straight into the journal.
	rest := d.in.extra[min(d.prog.sent, len(d.in.extra)):]
	n := min(o.sz.replay, len(rest)/3)
	if n == 0 {
		return nil, fmt.Errorf("no unsent uploads left for the write-path replay")
	}
	viaHandler, viaRegister, viaJournal := rest[:n], rest[n:2*n], rest[2*n:3*n]
	h := srv.Handler()
	var handlerNs, registerNs, decodeNs, encodeNs time.Duration
	for i := range viaHandler {
		took, err := serveOnce(h, &viaHandler[i].req)
		if err != nil {
			return nil, err
		}
		handlerNs += took
	}
	for i := range viaRegister {
		start := time.Now()
		if _, err := srv.Register(viaRegister[i].u); err != nil {
			return nil, err
		}
		registerNs += time.Since(start)
	}
	appendUs := make([]float64, n)
	for i := range viaJournal {
		batch := entriesOf(&viaJournal[i], &next)
		start := time.Now()
		if err := disk.AppendRegister(batch); err != nil {
			return nil, err
		}
		appendUs[i] = float64(time.Since(start)) / 1e3
	}
	wireBytes, reps := 0, 0
	for i := range viaHandler {
		body := viaHandler[i].req.body
		start := time.Now()
		u, err := wire.DecodeBinary(body)
		decodeNs += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		_, err = wire.EncodeBinary(u)
		encodeNs += time.Since(start)
		if err != nil {
			return nil, err
		}
		wireBytes += len(body)
		reps += len(u.Reps)
	}
	per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }
	res.set("server.upload_http_self_us", per(handlerNs)-per(registerNs), n)
	res.set("wire.decode_us", per(decodeNs), n)
	res.set("wire.encode_us", per(encodeNs), n)
	res.set("wire.bytes_per_rep", float64(wireBytes)/float64(max(reps, 1)), reps)
	res.set("store.append_us", mean(appendUs), n)
	res.set("store.append_p99_us", p99(sortedCopy(appendUs)), n)
	reqs := make([]*request, n)
	for i := range viaJournal {
		reqs[i] = &viaJournal[i].req
	}
	allocs, _, err := allocsPerOp(h, reqs)
	if err != nil {
		return nil, err
	}
	res.set("server.upload_allocs_op", allocs, n)
	return &attribution{
		title: fmt.Sprintf("%d replayed serially on a scratch node of %d entries", n, inserted),
		rows: []row{
			{rowHTTP, per(handlerNs) - per(registerNs) - per(decodeNs)},
			{rowWireDecode, per(decodeNs)},
			{rowAppend, mean(appendUs)},
			{rowInsert, per(registerNs) - mean(appendUs)},
		},
	}, nil
}

// storeLayer sizes the journal, then times a compaction and a
// checkpoint on the state the traced window left and reads the store's
// own counters.
func storeLayer(sys *system, res *result) {
	d := sys.disk
	if _, by, err := dirBytes(sys.storeOpts.Dir); err == nil {
		res.set("store.wal_bytes", float64(by["wal-"]), 1)
	}
	start := time.Now()
	if err := d.CompactNow(); err == nil {
		res.set("store.compact_s", time.Since(start).Seconds(), 1)
	} else {
		res.Findings = append(res.Findings, "CompactNow: "+err.Error())
	}
	start = time.Now()
	if err := d.Checkpoint(); err == nil {
		res.set("store.checkpoint_s", time.Since(start).Seconds(), 1)
	} else {
		res.Findings = append(res.Findings, "Checkpoint: "+err.Error())
	}
	ts := d.TieredStats()
	res.set("store.segments", float64(ts.Segments), 1)
	res.set("store.compactions", float64(ts.Compactions), 1)
	res.set("store.segment_bytes", float64(ts.SegmentBytes), 1)
	if _, by, err := dirBytes(sys.storeOpts.Dir); err == nil {
		res.set("store.checkpoint_bytes", float64(by["checkpoint-"]), 1)
	}
}
