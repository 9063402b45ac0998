package cluster_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"fovr/internal/cluster"
	"fovr/internal/obs"
	"fovr/internal/server"
)

// routedFixture is a router over three in-process partitions holding
// the test corpus, with the seeded query bodies pre-encoded.
func routedFixture(tb testing.TB) (*cluster.Router, [][]byte) {
	tb.Helper()
	topo := threePartitionTopology(tb)
	var leaders []*server.Server
	for i := range topo.Partitions {
		srv, ts := newPartitionLeader(tb, topo, topo.Partitions[i].ID)
		topo.Partitions[i].Leader = ts.URL
		leaders = append(leaders, srv)
	}
	for _, u := range corpus(3000) {
		for _, rep := range u.Reps {
			owner, err := topo.OwnerOfRep(rep)
			if err != nil {
				tb.Fatal(err)
			}
			one := u
			one.Reps = one.Reps[:0:0]
			one.Reps = append(one.Reps, rep)
			for i := range topo.Partitions {
				if &topo.Partitions[i] == owner {
					if _, err := leaders[i].Register(one); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, Registry: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	var bodies [][]byte
	for _, q := range queries(64) {
		body, err := server.AppendQueryRequest(nil, &server.QueryRequest{Query: q})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return rt, bodies
}

// BenchmarkRoutedQuery is one POST /query through Router.Handler()
// into three partition servers on loopback listeners.
func BenchmarkRoutedQuery(b *testing.B) {
	rt, bodies := routedFixture(b)
	h := rt.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies[i%len(bodies)]))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
