// The router's read leg against scripted partitions: what is pooled,
// when a leg leaves the common path, the resend rule, and what the
// common path costs.
package cluster_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fovr/internal/cluster"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
)

// stubPartition is a partition node reduced to its socket: it reads
// each POST off a connection and answers with a canned /query answer
// that echoes the request's trace id, as a partition does, one
// goroutine per connection and none per request, so a test sees
// exactly the goroutines, allocations and bytes the router causes.
type stubPartition struct {
	ln     net.Listener
	answer []byte        // the JSON answer without its trace id and closing brace
	delay  time.Duration // before answering
	// repeat, when set, writes the first answer on every connection a
	// second time, this long after the first.
	repeat time.Duration
	// script, when set, takes over connection number n (from 0) after
	// its first request has been read; it reports whether to go on
	// serving the connection normally.
	script func(n int, c net.Conn) bool

	accepted   atomic.Int32
	requests   atomic.Int32
	goroutines atomic.Int32 // most seen alive while a request was being served

	mu   sync.Mutex
	head []byte // the last request head received
	body []byte // and its body
}

func newStub(t *testing.T, id uint64, distance float64) *stubPartition {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	answer, err := server.AppendQueryResponse(nil, &server.QueryResponse{
		Results: []query.Ranked{{
			Entry: index.Entry{ID: id, Provider: "stub", Rep: segment.Representative{
				FoV: fov.FoV{P: geo.Point{Lat: 40, Lng: 116.3}, Theta: 90}, StartMillis: 1000, EndMillis: 2500}},
			DistanceMeters: distance,
		}},
		ElapsedMicros: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &stubPartition{ln: ln, answer: bytes.TrimSuffix(answer, []byte("}"))}
	go s.accept()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *stubPartition) url() string { return "http://" + s.ln.Addr().String() }

func (s *stubPartition) accept() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(int(s.accepted.Add(1))-1, c)
	}
}

func (s *stubPartition) serve(n int, c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var head, body, resp []byte
	for first := true; ; first = false {
		// One request: the head up to the blank line, then the body.
		head = head[:0]
		length := 0
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			head = append(head, line...)
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				length, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
			}
			if len(line) <= 2 {
				break
			}
		}
		if cap(body) < length {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		s.requests.Add(1)
		s.mu.Lock()
		s.head = append(s.head[:0], head...)
		s.body = append(s.body[:0], body...)
		s.mu.Unlock()
		for g := int32(runtime.NumGoroutine()); ; {
			if seen := s.goroutines.Load(); g <= seen || s.goroutines.CompareAndSwap(seen, g) {
				break
			}
		}
		if first && s.script != nil && !s.script(n, c) {
			return
		}
		time.Sleep(s.delay)
		var trace []byte
		if _, v, ok := bytes.Cut(head, traceField); ok {
			trace, _, _ = bytes.Cut(v, crlf)
		}
		resp = append(resp[:0], "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: "...)
		resp = strconv.AppendInt(resp, int64(len(s.answer)+len(`,"traceID":""}`)+len(trace)), 10)
		resp = append(append(resp, "\r\n\r\n"...), s.answer...)
		resp = append(append(append(resp, `,"traceID":"`...), trace...), `"}`...)
		if _, err := c.Write(resp); err != nil {
			return
		}
		if first && s.repeat > 0 {
			time.Sleep(s.repeat)
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}
}

// traceField and crlf delimit the trace id in a request head; the test
// ids need no JSON escaping.
var traceField, crlf = []byte("\r\n" + server.TraceHeader + ": "), []byte("\r\n")

func (s *stubPartition) lastHead() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.head)
}

func (s *stubPartition) lastBody() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.body)
}

// stubCluster is a router over one stub per partition; replicas[i]
// stubs, when given, follow partition i's leader in hedging order. The
// day's 24 window keys are split evenly, so dayQuery visits them all.
func stubCluster(t *testing.T, cfg cluster.RouterConfig, leaders []*stubPartition, replicas ...[]*stubPartition) (*cluster.Router, *obs.Registry) {
	t.Helper()
	topo := &cluster.Topology{WindowMillis: testWindow}
	per := int64(24 / len(leaders))
	for i, l := range leaders {
		p := cluster.Partition{
			ID:      fmt.Sprintf("p%d", i),
			Leader:  l.url(),
			Windows: []cluster.WindowRange{{From: int64(i) * per, To: int64(i+1)*per - 1}},
		}
		if i < len(replicas) {
			for _, r := range replicas[i] {
				p.Replicas = append(p.Replicas, r.url())
			}
		}
		topo.Partitions = append(topo.Partitions, p)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Topology, cfg.Registry = topo, obs.NewRegistry()
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, cfg.Registry
}

// dayQuery is a /query body whose window range every partition of a
// stubCluster owns a part of.
var dayQuery = func() []byte {
	body, err := server.AppendQueryRequest(nil, &server.QueryRequest{Query: query.Query{
		StartMillis: testWindow, EndMillis: 23*testWindow - 1, Center: testCity, RadiusMeters: 300,
	}})
	if err != nil {
		panic(err)
	}
	return body
}()

// route serves one POST /query through h on the calling goroutine.
func route(h http.Handler, header ...string) *httptest.ResponseRecorder {
	return routeTo(h, "/query", dayQuery, header...)
}

// routeTo serves one POST of body to path through h on the calling
// goroutine.
func routeTo(h http.Handler, path string, body []byte, header ...string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		r.Header[header[i]] = []string{header[i+1]}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// settle waits until goroutines started by earlier requests (the dials
// of a cold router go through the hedged race) have exited.
func settle() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 20; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// nullWriter is an http.ResponseWriter that costs nothing.
type nullWriter struct {
	hdr  http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// TestRoutedQuerySpawnsNothing pins the common case of a routed read —
// pooled connections, every leader answering before HedgeAfter: while
// the partitions are answering, no goroutine is alive that was not
// before the request (the scatter the router used to run had two per
// leg), and the router's own allocations are a fixed handful.
func TestRoutedQuerySpawnsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	stubs := []*stubPartition{newStub(t, 1, 10), newStub(t, 1<<48+1, 5), newStub(t, 2<<48+1, 7.5)}
	rt, reg := stubCluster(t, cluster.RouterConfig{}, stubs)
	h := rt.Handler()
	for i := 0; i < 3; i++ { // warm: dial, pool, fill the router's buffers
		if w := route(h); w.Code != http.StatusOK {
			t.Fatalf("warm-up: %d %s", w.Code, w.Body)
		}
	}
	idle := settle()
	for _, s := range stubs {
		s.goroutines.Store(0)
	}

	serve := func(h http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			r, _ := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(dayQuery))
			w := nullWriter{hdr: http.Header{}}
			h.ServeHTTP(&w, r)
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		})
	}
	base := serve(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	allocs := serve(h) - base

	for i, s := range stubs {
		if got := int(s.goroutines.Load()); got != idle {
			t.Errorf("partition %d saw %d goroutines alive while answering, %d were alive before the requests", i, got, idle)
		}
		if got := s.accepted.Load(); got != 1 {
			t.Errorf("partition %d accepted %d connections, want the one pooled connection", i, got)
		}
	}
	if hedges := reg.Counter("fovr_cluster_hedges_total").Value(); hedges != 0 {
		t.Errorf("%d hedges in the hedge-free case", hedges)
	}
	t.Logf("routed /query over 3 partitions: %.0f allocs/op in the router, %d goroutines throughout", allocs, idle)
	// The owners' set (2), the minted trace id, the provider and trace-id
	// strings of three decoded answers (6), the length header (2).
	const pin = 14
	if allocs > pin {
		t.Errorf("routed /query allocates %.0f/op in the router, want <= %d", allocs, pin)
	}

	// The merged answer is the three stubs' results in distance order.
	var resp server.QueryResponse
	if err := server.DecodeQueryResponse(route(h).Body.Bytes(), &resp); err != nil || len(resp.Results) != 3 ||
		resp.Results[0].Entry.ID != 1<<48+1 || resp.Results[1].Entry.ID != 2<<48+1 || resp.Results[2].Entry.ID != 1 {
		t.Fatalf("merged answer: %v %+v", err, resp.Results)
	}
}

// TestRoutedNearestIsAQuery: the router forwards a /nearest to every
// partition as the /query it asks, at radius 0 with maxResults k, and
// answers the merged QueryResponse.
func TestRoutedNearestIsAQuery(t *testing.T) {
	stubs := []*stubPartition{newStub(t, 1, 10), newStub(t, 1<<48+1, 5), newStub(t, 2<<48+1, 7.5)}
	rt, _ := stubCluster(t, cluster.RouterConfig{}, stubs)
	nearest := []byte(`{"center":{"lat":40,"lng":116.3},"startMillis":3600000,"endMillis":82799999,"k":7}`)
	w := routeTo(rt.Handler(), "/nearest", nearest)
	if w.Code != http.StatusOK {
		t.Fatalf("%d %s", w.Code, w.Body)
	}
	const want = `{"startMillis":3600000,"endMillis":82799999,"center":{"lat":40,"lng":116.3},"radiusMeters":0,"maxResults":7}`
	for i, s := range stubs {
		if head := s.lastHead(); !strings.HasPrefix(head, "POST /query HTTP/1.1\r\n") {
			t.Errorf("partition %d was asked\n%s", i, head)
		}
		if got := s.lastBody(); got != want {
			t.Errorf("partition %d was asked %s, want %s", i, got, want)
		}
	}
	var resp server.QueryResponse
	if err := server.DecodeQueryResponse(w.Body.Bytes(), &resp); err != nil || resp.Trace != nil || len(resp.Results) != 3 ||
		resp.Results[0].Entry.ID != 1<<48+1 || resp.Results[2].Entry.ID != 1 {
		t.Fatalf("merged answer: %v %s", err, w.Body)
	}
}

// TestRoutedReadCarriesTheRoutersN: a question that names no N reaches
// every partition with the router's DefaultMaxResults, so no partition's
// own default ever applies to a routed read.
func TestRoutedReadCarriesTheRoutersN(t *testing.T) {
	stubs := []*stubPartition{newStub(t, 1, 10), newStub(t, 1<<48+1, 5), newStub(t, 2<<48+1, 7.5)}
	rt, _ := stubCluster(t, cluster.RouterConfig{DefaultMaxResults: 13}, stubs)
	h := rt.Handler()
	reads := []struct {
		path string
		body []byte
	}{
		{"/query", dayQuery},
		{"/nearest", []byte(`{"center":{"lat":40,"lng":116.3},"startMillis":3600000,"endMillis":82799999}`)},
		{"/nearest", []byte(`{"center":{"lat":40,"lng":116.3},"startMillis":3600000,"endMillis":82799999,"k":0}`)},
	}
	for _, rd := range reads {
		if w := routeTo(h, rd.path, rd.body); w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", rd.path, rd.body, w.Code, w.Body)
		}
		for i, s := range stubs {
			if got := s.lastBody(); !strings.HasSuffix(got, `,"maxResults":13}`) {
				t.Errorf("%s %s reached partition %d as %s, want maxResults 13", rd.path, rd.body, i, got)
			}
		}
	}
}

// TestPartitionRestartedBetweenQueries: the connections pooled by the
// first query die with the partition; the second query finds them
// stale, resends on a new connection and answers — no 502, no hedge.
func TestPartitionRestartedBetweenQueries(t *testing.T) {
	topo := threePartitionTopology(t)
	var restart func()
	for i := range topo.Partitions {
		srv, ts := newPartitionLeader(t, topo, topo.Partitions[i].ID)
		topo.Partitions[i].Leader = ts.URL
		if i == 1 {
			restart = func() {
				addr := ts.Listener.Addr().String()
				ts.Close() // closes the listener and every connection, idle ones included
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Skipf("cannot listen on %s again: %v", addr, err)
				}
				again := &httptest.Server{Listener: ln, Config: &http.Server{Handler: srv.Handler()}}
				again.Start()
				t.Cleanup(again.Close)
			}
		}
	}
	reg := obs.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()
	for i := 0; i < 2; i++ { // the second round runs on pooled connections
		if w := route(h); w.Code != http.StatusOK {
			t.Fatalf("before the restart: %d %s", w.Code, w.Body)
		}
	}
	restart()
	for i := 0; i < 2; i++ {
		if w := route(h); w.Code != http.StatusOK {
			t.Fatalf("query %d after the restart: %d %s", i, w.Code, w.Body)
		}
	}
	if n := reg.Counter(`fovr_cluster_partition_errors_total{partition="p1"}`).Value(); n != 0 {
		t.Errorf("%d partition errors counted for a transparent resend", n)
	}
	if n := reg.Counter("fovr_cluster_hedges_total").Value(); n != 0 {
		t.Errorf("%d hedges counted for a transparent resend", n)
	}
}

// TestResetMidBodyIs502AndConnectionIsDropped: an answer cut off
// after its head is not resent (bytes of it were read) and not hidden:
// the 502 names the partition, and the next query goes out on a new
// connection.
func TestResetMidBodyIs502AndConnectionIsDropped(t *testing.T) {
	good, cut := newStub(t, 1, 1), newStub(t, 1<<48+1, 2)
	cut.script = func(n int, c net.Conn) bool {
		if n != 1 {
			return true
		}
		// The second connection (the first was the warm-up's, below)
		// starts a 5 000-byte answer and is reset 12 bytes into it.
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5000\r\n\r\n{\"results\":[")
		_ = c.(*net.TCPConn).SetLinger(0)
		return false
	}
	rt, reg := stubCluster(t, cluster.RouterConfig{}, []*stubPartition{good, cut})
	h := rt.Handler()
	if w := route(h); w.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", w.Code, w.Body)
	}
	settle()
	// Kill the pooled connection so that the next query dials: the stub
	// scripts by connection number.
	rt.Close()

	w := route(h)
	if w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), `partition "p1"`) {
		t.Fatalf("cut-off answer: %d %q, want a 502 naming p1", w.Code, w.Body)
	}
	if n := reg.Counter(`fovr_cluster_partition_errors_total{partition="p1"}`).Value(); n != 1 {
		t.Errorf("partition errors = %d, want 1", n)
	}
	if w := route(h); w.Code != http.StatusOK {
		t.Fatalf("after the cut-off answer: %d %s", w.Code, w.Body)
	}
	if got := cut.accepted.Load(); got != 3 {
		t.Errorf("p1 accepted %d connections, want 3: warm-up, the one that was cut, and a new one after it", got)
	}
	if got := cut.requests.Load(); got != 3 {
		t.Errorf("p1 read %d requests, want 3: a cut-off answer must not be resent", got)
	}
}

// TestDuplicatedResponseIsNotTheNextAnswer: a partition that answers a
// request twice leaves the second copy in the pooled connection, where
// the next request on it reads the copy as its own answer. The echoed
// trace id gives the copy away: that query is a 502 naming the
// partition rather than an answer to another request, the pooled
// connections are dropped, and the query after it answers on a new
// connection.
func TestDuplicatedResponseIsNotTheNextAnswer(t *testing.T) {
	stub := newStub(t, 1, 1)
	stub.repeat = 5 * time.Millisecond
	rt, reg := stubCluster(t, cluster.RouterConfig{}, []*stubPartition{stub})
	h := rt.Handler()
	if w := route(h, server.TraceHeader, "one"); w.Code != http.StatusOK {
		t.Fatalf("first query: %d %s", w.Code, w.Body)
	}
	time.Sleep(50 * time.Millisecond) // the copy lands in the pooled connection

	w := route(h, server.TraceHeader, "two")
	if body := w.Body.String(); w.Code != http.StatusBadGateway || !strings.Contains(body, `partition "p0"`) || !strings.Contains(body, `"one"`) {
		t.Fatalf("second query: %d %q, want a 502 naming p0 and the first query's trace", w.Code, body)
	}
	if n := reg.Counter(`fovr_cluster_partition_errors_total{partition="p0"}`).Value(); n != 1 {
		t.Errorf("partition errors = %d, want 1", n)
	}
	w = route(h, server.TraceHeader, "three")
	var resp server.QueryResponse
	if err := server.DecodeQueryResponse(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || resp.TraceID != "three" || len(resp.Results) != 1 {
		t.Fatalf("third query: %d %s (%v)", w.Code, w.Body, err)
	}
	if got := stub.accepted.Load(); got != 2 {
		t.Errorf("p0 accepted %d connections, want 2: the one the copy poisoned is not reused", got)
	}
}

// TestUnsafeTraceHeaderStaysOffTheWire: a trace id that would end the
// header line early, or that a partition would not echo unchanged (over
// server.MaxTraceIDLen bytes, not UTF-8), is not forwarded; the router
// mints its own.
func TestUnsafeTraceHeaderStaysOffTheWire(t *testing.T) {
	stub := newStub(t, 1, 1)
	rt, _ := stubCluster(t, cluster.RouterConfig{}, []*stubPartition{stub})
	h := rt.Handler()

	if w := route(h, server.TraceHeader, "abc123"); w.Code != http.StatusOK {
		t.Fatalf("safe id: %d %s", w.Code, w.Body)
	}
	if head := stub.lastHead(); !strings.Contains(head, "\r\n"+server.TraceHeader+": abc123\r\n") {
		t.Fatalf("a safe trace id was not forwarded:\n%s", head)
	}
	for _, evil := range []string{"x\r\nX-Injected: 1", "x\nX-Injected: 1", "x\x00y", " padded ",
		strings.Repeat("padded", server.MaxTraceIDLen/6+1), "padded\xff"} {
		w := route(h, server.TraceHeader, evil)
		if w.Code != http.StatusOK {
			t.Fatalf("%q: %d %s", evil, w.Code, w.Body)
		}
		head := stub.lastHead()
		if strings.Contains(head, "X-Injected") || strings.Contains(head, "padded") || !strings.Contains(head, "\r\n"+server.TraceHeader+": rt-") {
			t.Fatalf("%q reached the partition:\n%q", evil, head)
		}
		var resp server.QueryResponse
		if err := server.DecodeQueryResponse(w.Body.Bytes(), &resp); err != nil || !strings.HasPrefix(resp.TraceID, "rt-") {
			t.Fatalf("%q: answer carries trace id %q (%v), want a minted one", evil, resp.TraceID, err)
		}
	}
}

// TestRoutedTraceIDsThePartitionsEcho: whatever trace id an inquirer
// sends, real partitions echo the id the router forwarded, so no answer
// is refused as another request's.
func TestRoutedTraceIDsThePartitionsEcho(t *testing.T) {
	topo := threePartitionTopology(t)
	for i := range topo.Partitions {
		_, ts := newPartitionLeader(t, topo, topo.Partitions[i].ID)
		topo.Partitions[i].Leader = ts.URL
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()
	long := strings.Repeat("a", server.MaxTraceIDLen)
	for _, id := range []string{"abc", long, long + "a", "caf\u00e9", "bad\xff", `<&>"\`} {
		for round := 0; round < 2; round++ { // cold, then on pooled connections
			if w := route(h, server.TraceHeader, id); w.Code != http.StatusOK {
				t.Fatalf("trace id %q, round %d: %d %s", id, round, w.Code, w.Body)
			}
		}
	}
}

// TestSlowLeadersCostTheMaxNotTheSum: legs are read in turn, but slow
// ones wait concurrently — with and without somewhere to hedge to.
func TestSlowLeadersCostTheMaxNotTheSum(t *testing.T) {
	const slow = 150 * time.Millisecond
	slowStubs := func() []*stubPartition {
		out := []*stubPartition{newStub(t, 1, 1), newStub(t, 1<<48+1, 2), newStub(t, 2<<48+1, 3)}
		for _, s := range out {
			s.delay = slow
		}
		return out
	}
	timeRoute := func(h http.Handler) time.Duration {
		start := time.Now()
		if w := route(h); w.Code != http.StatusOK {
			t.Fatalf("%d %s", w.Code, w.Body)
		}
		return time.Since(start)
	}

	t.Run("no replicas", func(t *testing.T) {
		rt, reg := stubCluster(t, cluster.RouterConfig{HedgeAfter: 10 * time.Millisecond}, slowStubs())
		h := rt.Handler()
		timeRoute(h) // cold: through the race
		settle()
		if took := timeRoute(h); took < slow || took > 2*slow {
			t.Errorf("three %v partitions took %v on pooled connections, want about one %v", slow, took, slow)
		}
		if n := reg.Counter("fovr_cluster_hedges_total").Value(); n != 0 {
			t.Errorf("%d hedges with nowhere to hedge to", n)
		}
	})

	t.Run("replicas", func(t *testing.T) {
		leaders := slowStubs()
		replicas := [][]*stubPartition{{newStub(t, 1, 1)}, {newStub(t, 1<<48+1, 2)}, {newStub(t, 2<<48+1, 3)}}
		rt, reg := stubCluster(t, cluster.RouterConfig{HedgeAfter: 20 * time.Millisecond}, leaders, replicas...)
		h := rt.Handler()
		timeRoute(h)
		settle()
		before := reg.Counter("fovr_cluster_hedges_total").Value()
		if took := timeRoute(h); took >= slow {
			t.Errorf("three slow leaders with fast replicas took %v, want about HedgeAfter, well under %v", took, slow)
		}
		if n := reg.Counter("fovr_cluster_hedges_total").Value() - before; n != 3 {
			t.Errorf("%d hedges, want one per slow leader", n)
		}
		// The abandoned leader exchanges were closed, not pooled: the
		// next query dials the leaders anew.
		settle()
		time.Sleep(slow) // let the stubs notice
		accepted := leaders[0].accepted.Load()
		timeRoute(h)
		settle()
		if got := leaders[0].accepted.Load(); got != accepted+1 {
			t.Errorf("leader 0 accepted %d connections after the hedged query, want %d: an abandoned connection must not be reused", got, accepted+1)
		}
	})
}
