// Router end-to-end suites: the differential contract (a 3-partition
// scatter-gather cluster answers byte-identically to one node holding
// the union), partition failover under a query storm (a killed leader's
// replica keeps every query succeeding via hedged reads), and the
// cluster /healthz grading.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"fovr/internal/client"
	"fovr/internal/cluster"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/replica"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

var (
	testCam  = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
	testCity = geo.Point{Lat: 40.0, Lng: 116.3}
)

const testWindow = int64(3_600_000) // 1h, the topology default

// corpus returns n representative FoVs spread over one day around the
// test city (the bench-corpus idiom: session batches, ~2s segments),
// with ~2% over-long segments, which the first partition holds.
func corpus(n int) []wire.Upload {
	rng := rand.New(rand.NewSource(51))
	var uploads []wire.Upload
	for len(uploads)*32 < n {
		base := int64(rng.Intn(86_400_000))
		u := wire.Upload{Provider: fmt.Sprintf("client-%d", len(uploads)%7)}
		for i := 0; i < 32; i++ {
			p := geo.Offset(testCity, rng.Float64()*360, rng.Float64()*5000)
			start := base + int64(i)*2000
			end := start + 1500 + int64(rng.Intn(500))
			if rng.Intn(50) == 0 {
				end = start + 2*testWindow // over-long: placed on the first partition
			}
			u.Reps = append(u.Reps, segment.Representative{
				FoV:         fov.FoV{P: p, Theta: rng.Float64() * 360},
				StartMillis: start,
				EndMillis:   end,
			})
		}
		uploads = append(uploads, u)
	}
	return uploads
}

// queries returns the seeded query set (1h windows, a few-hundred-meter
// boxes around the city).
func queries(n int) []query.Query {
	rng := rand.New(rand.NewSource(52))
	out := make([]query.Query, n)
	for i := range out {
		ts := int64(rng.Intn(86_400_000))
		out[i] = query.Query{
			StartMillis:  ts,
			EndMillis:    ts + testWindow,
			Center:       geo.Offset(testCity, rng.Float64()*360, rng.Float64()*4000),
			RadiusMeters: 200 + rng.Float64()*800,
		}
	}
	return out
}

// threePartitionTopology splits the day's 24 window keys three ways,
// leader URLs to be filled in once the httptest servers exist.
func threePartitionTopology(t testing.TB) *cluster.Topology {
	t.Helper()
	topo := &cluster.Topology{
		WindowMillis: testWindow,
		Partitions: []cluster.Partition{
			{ID: "p0", Leader: "pending", Windows: []cluster.WindowRange{{From: 0, To: 7}}},
			{ID: "p1", Leader: "pending", Windows: []cluster.WindowRange{{From: 8, To: 15}}},
			{ID: "p2", Leader: "pending", Windows: []cluster.WindowRange{{From: 16, To: 23}}},
		},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// newPartitionLeader builds one partition's writable node: an in-memory
// server wearing the topology's ownership guard and id base.
func newPartitionLeader(t testing.TB, topo *cluster.Topology, id string) (*server.Server, *httptest.Server) {
	t.Helper()
	base, err := topo.IDBase(id)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Camera:   testCam,
		Registry: obs.NewRegistry(),
		IDBase:   base,
		OwnsRep:  topo.OwnsRep(id),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func newRouter(t *testing.T, topo *cluster.Topology, reg *obs.Registry) *httptest.Server {
	t.Helper()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Topology:     topo,
		HedgeAfter:   50 * time.Millisecond,
		ProbeTimeout: 500 * time.Millisecond,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, req, out any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, string(respBody)
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		t.Fatalf("%s: %v (%s)", url, err, respBody)
	}
	return resp.StatusCode, ""
}

// postTraced posts body under the trace id and returns the 200 answer's
// bytes.
func postTraced(t *testing.T, url string, body []byte, trace string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s (%v)", url, resp.StatusCode, out, err)
	}
	return out
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterDifferential pins the merge contract: a 3-partition
// cluster ingested through the router answers the seeded query set —
// box queries and nearest-neighbor — byte-identically to a single
// node holding the union of the partitions' entries.
func TestClusterDifferential(t *testing.T) {
	topo := threePartitionTopology(t)
	leaders := make([]*server.Server, len(topo.Partitions))
	for i := range topo.Partitions {
		srv, ts := newPartitionLeader(t, topo, topo.Partitions[i].ID)
		leaders[i] = srv
		topo.Partitions[i].Leader = ts.URL
	}
	reg := obs.NewRegistry()
	router := newRouter(t, topo, reg)

	// Ingest the corpus through the router with the ordinary client.
	c := client.New(router.URL)
	var total, uploads int
	for _, u := range corpus(3000) {
		ids, err := c.Upload(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(u.Reps) {
			t.Fatalf("upload: %d ids for %d reps", len(ids), len(u.Reps))
		}
		for _, id := range ids {
			if id == 0 {
				t.Fatal("upload: unassigned id in response")
			}
		}
		total += len(u.Reps)
		uploads++
	}

	// Every entry must live on the partition the topology assigns, with
	// ids from the partition's disjoint id space.
	union := make([]index.Entry, 0, total)
	seen := make(map[uint64]bool, total)
	overLong := 0
	for i, srv := range leaders {
		entries := srv.Index().Entries()
		base, _ := topo.IDBase(topo.Partitions[i].ID)
		for _, e := range entries {
			if e.ID <= base || e.ID > base+(1<<48) {
				t.Fatalf("partition %s: id %d outside its base %d", topo.Partitions[i].ID, e.ID, base)
			}
			if seen[e.ID] {
				t.Fatalf("duplicate id %d across partitions", e.ID)
			}
			seen[e.ID] = true
			if err := topo.OwnsRep(topo.Partitions[i].ID)(e.Rep); err != nil {
				t.Fatalf("partition %s holds a rep it does not own: %v", topo.Partitions[i].ID, err)
			}
			if index.OverLong(e.Rep.StartMillis, e.Rep.EndMillis, testWindow) {
				if i != 0 {
					t.Fatalf("partition %s holds over-long rep %d", topo.Partitions[i].ID, e.ID)
				}
				overLong++
			}
		}
		union = append(union, entries...)
	}
	if overLong == 0 {
		t.Fatal("the corpus holds no over-long segment")
	}
	if len(union) != total {
		t.Fatalf("union has %d entries, ingested %d", len(union), total)
	}

	// Single-node comparator: one server over the union.
	single, err := server.New(server.Config{
		Camera:   testCam,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.ApplyRegister(union, ""); err != nil {
		t.Fatal(err)
	}
	singleHTTP := httptest.NewServer(single.Handler())
	t.Cleanup(singleHTTP.Close)

	qs := queries(120)
	for i, q := range qs {
		var routed, direct server.QueryResponse
		if code, msg := postJSON(t, router.URL+"/query", server.QueryRequest{Query: q}, &routed); code != 200 {
			t.Fatalf("query %d via router: %d %s", i, code, msg)
		}
		if code, msg := postJSON(t, singleHTTP.URL+"/query", server.QueryRequest{Query: q}, &direct); code != 200 {
			t.Fatalf("query %d via single node: %d %s", i, code, msg)
		}
		if got, want := marshal(t, routed.Results), marshal(t, direct.Results); !bytes.Equal(got, want) {
			t.Fatalf("query %d (%+v): routed results differ from single node\nrouted: %s\nsingle: %s", i, q, got, want)
		}
	}

	// A routed /nearest (a /query at radius 0 on every partition) answers
	// the bytes one node answers, but for the elapsed time: the same
	// QueryResponse document, without a trace.
	elapsed, zero := regexp.MustCompile(`"elapsedMicros":[0-9]+`), []byte(`"elapsedMicros":0`)
	hits := 0
	for i, q := range qs[:60] {
		body := marshal(t, server.NearestRequest{Center: q.Center, StartMillis: q.StartMillis, EndMillis: q.EndMillis, K: 10})
		trace := fmt.Sprintf("nearest-%d", i)
		routed := elapsed.ReplaceAll(postTraced(t, router.URL+"/nearest", body, trace), zero)
		direct := elapsed.ReplaceAll(postTraced(t, singleHTTP.URL+"/nearest", body, trace), zero)
		if !bytes.Equal(routed, direct) {
			t.Fatalf("nearest %d: routed answer differs\nrouted: %s\nsingle: %s", i, routed, direct)
		}
		var resp server.QueryResponse
		if err := server.DecodeQueryResponse(direct, &resp); err != nil || resp.Trace != nil {
			t.Fatalf("nearest %d: not a trace-free QueryResponse (%v): %s", i, err, direct)
		}
		hits += len(resp.Results)
	}
	if hits == 0 {
		t.Fatal("no nearest question found anything")
	}

	// ?explain=1 sums the partitions' index traversal cost.
	q := qs[0]
	resp, err := http.Post(router.URL+"/query?explain=1", "application/json",
		bytes.NewReader(marshal(t, server.QueryRequest{Query: q})))
	if err != nil {
		t.Fatal(err)
	}
	var explained server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&explained); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if explained.Trace == nil || explained.Trace.NodesVisited == 0 {
		t.Fatalf("explain through router carried no summed trace: %+v", explained.Trace)
	}

	// Uploads sent straight to the wrong leader bounce with 421.
	wrongRep := segment.Representative{FoV: fov.FoV{P: testCity, Theta: 0}, StartMillis: 9 * testWindow, EndMillis: 9*testWindow + 1000}
	owner, err := topo.OwnerOfRep(wrongRep)
	if err != nil {
		t.Fatal(err)
	}
	for i := range topo.Partitions {
		if topo.Partitions[i].ID == owner.ID {
			continue
		}
		body, _ := wire.EncodeBinary(wire.Upload{Provider: "misroute", Reps: []segment.Representative{wrongRep}})
		resp, err := http.Post(topo.Partitions[i].Leader+"/upload", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("misrouted upload to %s: status %d, want 421", topo.Partitions[i].ID, resp.StatusCode)
		}
		break
	}
}

// TestClusterHedgedFailover kills one partition's leader mid-query-storm
// and requires every query to keep succeeding via hedged reads against
// the partition's replica, with the hedge counter and the health report
// both showing what happened.
func TestClusterHedgedFailover(t *testing.T) {
	topo := &cluster.Topology{
		WindowMillis: testWindow,
		Partitions: []cluster.Partition{
			{ID: "p0", Leader: "pending", Windows: []cluster.WindowRange{{From: 0, To: 11}}},
			{ID: "p1", Leader: "pending", Windows: []cluster.WindowRange{{From: 12, To: 23}}},
		},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}

	_, ts0 := newPartitionLeader(t, topo, "p0")
	topo.Partitions[0].Leader = ts0.URL

	// p1: durable leader + replica tailing it (the existing replica
	// set), so the leader can die and reads carry on.
	st1, err := store.Open(store.Options{Dir: t.TempDir(), CheckpointInterval: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	base1, _ := topo.IDBase("p1")
	leader1, err := server.New(server.Config{
		Camera:   testCam,
		Registry: obs.NewRegistry(),
		Store:    st1,
		IDBase:   base1,
		OwnsRep:  topo.OwnsRep("p1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(leader1.Handler())
	topo.Partitions[1].Leader = ts1.URL

	replicaSrv, err := server.New(server.Config{
		Camera:    testCam,
		Registry:  obs.NewRegistry(),
		ReadOnly:  true,
		LeaderURL: ts1.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	fetcher := client.NewReplicator(ts1.URL)
	fetcher.RetryDelay = 5 * time.Millisecond
	fol, err := replica.Start(replica.Options{
		Fetch:    fetcher,
		Apply:    replicaSrv,
		Poll:     50 * time.Millisecond,
		Registry: replicaSrv.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	replicaSrv.AttachFollower(fol)
	tsR := httptest.NewServer(replicaSrv.Handler())
	t.Cleanup(tsR.Close)
	topo.Partitions[1].Replicas = []string{tsR.URL}

	reg := obs.NewRegistry()
	router := newRouter(t, topo, reg)

	c := client.New(router.URL)
	var total int
	for _, u := range corpus(2000) {
		if _, err := c.Upload(u); err != nil {
			t.Fatal(err)
		}
		total += len(u.Reps)
	}
	// Let the replica catch up before the storm, so post-kill reads
	// have the full corpus.
	deadline := time.Now().Add(15 * time.Second)
	for replicaSrv.Index().Len() != leader1.Index().Len() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d/%d entries", replicaSrv.Index().Len(), leader1.Index().Len())
		}
		time.Sleep(20 * time.Millisecond)
	}

	qs := queries(90)
	hedgesBefore := reg.Counter("fovr_cluster_hedges_total").Value()
	for i, q := range qs {
		if i == 30 {
			// SIGKILL the p1 leader mid-storm: from here on, every
			// query touching p1 must hedge to the replica and still
			// succeed.
			ts1.Close()
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}
		}
		var resp server.QueryResponse
		if code, msg := postJSON(t, router.URL+"/query", server.QueryRequest{Query: q}, &resp); code != 200 {
			t.Fatalf("query %d (leader dead: %v): %d %s", i, i >= 30, code, msg)
		}
	}
	if hedges := reg.Counter("fovr_cluster_hedges_total").Value(); hedges <= hedgesBefore {
		t.Fatal("no hedges fired after leader death")
	}

	// Health: p1's leader is gone but its replica serves -> degraded,
	// naming the dead leader.
	var hr cluster.RouterHealthzResponse
	code, _ := getJSON(t, router.URL+"/healthz", &hr)
	if code != http.StatusOK || hr.State != obs.HealthDegraded {
		t.Fatalf("healthz after leader death: code %d state %s, want 200 degraded", code, hr.State)
	}

	// Kill the replica too: p1's window range has no live owner ->
	// failing, 503, and queries over it fail loudly (502) instead of
	// returning a silent partial merge.
	tsR.Close()
	code, _ = getJSON(t, router.URL+"/healthz", &hr)
	if code != http.StatusServiceUnavailable || hr.State != obs.HealthFailing {
		t.Fatalf("healthz with partition dark: code %d state %s, want 503 failing", code, hr.State)
	}
	deadQ := query.Query{StartMillis: 13 * testWindow, EndMillis: 13*testWindow + 1000, Center: testCity, RadiusMeters: 500}
	var resp server.QueryResponse
	if code, _ := postJSON(t, router.URL+"/query", server.QueryRequest{Query: deadQ}, &resp); code != http.StatusBadGateway {
		t.Fatalf("query over dark partition: code %d, want 502", code)
	}
}

func getJSON(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return resp.StatusCode, string(body)
	}
	return resp.StatusCode, ""
}

// TestRouterHealthzOK: a fully-live cluster reports ok, and the
// topology endpoint serves the loaded map.
func TestRouterHealthzOK(t *testing.T) {
	topo := threePartitionTopology(t)
	for i := range topo.Partitions {
		_, ts := newPartitionLeader(t, topo, topo.Partitions[i].ID)
		topo.Partitions[i].Leader = ts.URL
	}
	router := newRouter(t, topo, obs.NewRegistry())

	var hr cluster.RouterHealthzResponse
	if code, msg := getJSON(t, router.URL+"/healthz", &hr); code != 200 || hr.State != obs.HealthOK {
		t.Fatalf("healthz: %d %s %s", code, hr.State, msg)
	}
	if hr.Partitions != 3 {
		t.Fatalf("healthz partitions = %d", hr.Partitions)
	}
	var served cluster.Topology
	if code, _ := getJSON(t, router.URL+"/cluster/topology", &served); code != 200 {
		t.Fatal("topology endpoint failed")
	}
	if len(served.Partitions) != 3 || served.WindowMillis != testWindow {
		t.Fatalf("served topology: %+v", served)
	}
}

// TestRouterRefusesJSONUpload: the router takes the node's one upload
// encoding, wire binary; a JSON body gets 415 and reaches no partition.
func TestRouterRefusesJSONUpload(t *testing.T) {
	stub := newStub(t, 1, 1)
	rt, _ := stubCluster(t, cluster.RouterConfig{}, []*stubPartition{stub})
	body := marshal(t, wire.Upload{Provider: "alice", Reps: []segment.Representative{
		{FoV: fov.FoV{P: testCity, Theta: 90}, StartMillis: testWindow, EndMillis: testWindow + 1000},
	}})
	r := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON upload: %d %s, want 415", w.Code, w.Body)
	}
	if n := stub.requests.Load(); n != 0 {
		t.Errorf("the partition saw %d requests", n)
	}
}

// TestRouterRefusesMalformedReads: a /query or /nearest the partitions
// would refuse — an inverted interval, an invalid center — gets the
// node's 400 from the router itself, and no partition, leader or
// replica, hears of it.
func TestRouterRefusesMalformedReads(t *testing.T) {
	leaders := []*stubPartition{newStub(t, 1, 1), newStub(t, 1<<48+1, 2), newStub(t, 2<<48+1, 3)}
	replicas := [][]*stubPartition{{newStub(t, 1, 1)}, {newStub(t, 1<<48+1, 2)}, {newStub(t, 2<<48+1, 3)}}
	rt, _ := stubCluster(t, cluster.RouterConfig{}, leaders, replicas...)
	inverted := server.NearestRequest{Center: testCity, StartMillis: 23 * testWindow, EndMillis: testWindow}
	offMap := server.NearestRequest{Center: geo.Point{Lat: 95, Lng: 116.3}, StartMillis: testWindow, EndMillis: 23*testWindow - 1}
	for _, tc := range []struct {
		path string
		body any
		want string
	}{
		{"/nearest", inverted, "time interval inverted"},
		{"/nearest", offMap, "invalid center"},
		{"/query", inverted.Question(), "time interval inverted"},
		{"/query", offMap.Question(), "invalid center"},
	} {
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(marshal(t, tc.body))))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s %s: %d %s, want 400 naming %q", tc.path, marshal(t, tc.body), w.Code, w.Body, tc.want)
		}
	}
	for i, s := range append(leaders, replicas[0][0], replicas[1][0], replicas[2][0]) {
		if n := s.requests.Load(); n != 0 {
			t.Errorf("partition node %d saw %d requests", i, n)
		}
	}
}

// TestRouteTable walks every route of a node and of the router: a
// request with another method gets the mux's 405 with an Allow header
// naming the route's method, and never reaches the handler; the route's
// own method reaches it (a node's request histogram for the endpoint
// counts it). HEAD rides on GET.
func TestRouteTable(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{Camera: testCam, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	topo := threePartitionTopology(t)
	for i := range topo.Partitions {
		topo.Partitions[i].Leader = "http://127.0.0.1:1" // nothing listens: probes fail at once
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, ProbeTimeout: 100 * time.Millisecond, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	type route struct{ method, path, label string }
	surfaces := []struct {
		name   string
		h      http.Handler
		routes []route
	}{
		{"server", srv.Handler(), []route{
			{"POST", "/upload", "/upload"},
			{"POST", "/query", "/query"},
			{"POST", "/nearest", "/nearest"},
			{"GET", "/stats", "/stats"},
			{"POST", "/forget", "/forget"},
			{"POST", "/checkpoint", "/checkpoint"},
			{"GET", "/replicate", "/replicate"},
			{"GET", "/metrics", "/metrics"},
			{"GET", "/healthz", "/healthz"},
			{"GET", "/debug/traces", "/debug/traces"},
			{"GET", "/debug/traces/abc", "/debug/traces/:id"},
		}},
		{"router", rt.Handler(), []route{
			{"POST", "/query", ""},
			{"POST", "/nearest", ""},
			{"POST", "/upload", ""},
			{"GET", "/cluster/topology", ""},
			{"GET", "/healthz", ""},
			{"GET", "/metrics", ""},
		}},
	}
	serve := func(h http.Handler, method, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, http.NoBody))
		return w
	}
	for _, sf := range surfaces {
		for _, r := range sf.routes {
			wrong := "POST"
			if r.method == "POST" {
				wrong = "GET"
			}
			var hist *obs.Histogram
			if r.label != "" {
				hist = reg.Histogram(fmt.Sprintf("fovr_http_request_seconds{endpoint=%q}", r.label))
			}
			w := serve(sf.h, wrong, r.path)
			if allow := w.Header().Get("Allow"); w.Code != http.StatusMethodNotAllowed || !strings.Contains(allow, r.method) {
				t.Errorf("%s: %s %s: %d, Allow %q; want 405 allowing %s", sf.name, wrong, r.path, w.Code, allow, r.method)
			}
			if hist != nil && hist.Count() != 0 {
				t.Errorf("%s: %s %s reached the handler", sf.name, wrong, r.path)
			}
			methods := []string{r.method}
			if r.method == "GET" {
				methods = append(methods, "HEAD")
			}
			for i, m := range methods {
				w := serve(sf.h, m, r.path)
				if w.Code == http.StatusMethodNotAllowed || (hist == nil && w.Code == http.StatusNotFound) {
					t.Errorf("%s: %s %s: %d, not routed", sf.name, m, r.path, w.Code)
				}
				if hist != nil && hist.Count() != int64(i+1) {
					t.Errorf("%s: %s %s: the endpoint counted %d requests, want %d", sf.name, m, r.path, hist.Count(), i+1)
				}
			}
		}
	}
}
