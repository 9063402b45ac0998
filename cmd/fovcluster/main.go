// Command fovcluster runs the stateless scatter-gather query router of
// a partitioned deployment: single-node clients keep speaking the
// single-node API (/upload, /query, /nearest) against this process,
// which routes each request to the partitions owning its placement keys.
//
// Usage:
//
//	fovcluster -topology topology.json [-addr :8479]
//	           [-partition-timeout 5s] [-hedge-after 50ms] [-probe-timeout 1s]
//	           [-max-results 20] [-quiet] [-log-json]
//
// The topology file is a JSON partition map (see internal/cluster and
// the README's cluster quickstart):
//
//	{
//	  "windowMillis": 3600000,
//	  "partitions": [
//	    {"id": "p0", "leader": "http://10.0.0.1:8477",
//	     "replicas": ["http://10.0.0.2:8477"],
//	     "windows": [{"from": 0, "to": 11}]},
//	    {"id": "p1", "leader": "http://10.0.0.3:8477",
//	     "windows": [{"from": 12, "to": 23}]}
//	  ]
//	}
//
// A key the map does not define (spatialShards and spatialCells among
// them) fails start-up. A segment is placed by the window its start
// falls in; one longer than a window goes to the first partition.
//
// Each partition's leader is a plain fovserver started with
// -cluster-topology/-cluster-partition (which makes it reject
// misrouted uploads and assign ids from the partition's disjoint id
// space); replicas are ordinary -replica-of followers. Queries
// scatter to the partitions owning their window and to the first
// partition with a per-partition timeout, /nearest as the /query at
// radius 0 it asks, hedge to replicas after -hedge-after without an
// answer, and merge deterministically — the routed result is
// byte-identical to the same corpus served by one node. The router
// itself holds no state: run several behind a load balancer, restart
// freely.
//
// GET /cluster/topology serves the loaded map; GET /healthz grades the
// cluster (degraded while any partition node is unreachable or every
// query is hedging, failing when some partition has no live node);
// GET /metrics exports fovr_cluster_* (fan-out width, hedge fires,
// per-partition latency and errors). `fovctl cluster` renders both.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fovr/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8479", "listen address")
	topologyPath := flag.String("topology", "", "cluster topology file (required)")
	partitionTimeout := flag.Duration("partition-timeout", 5*time.Second, "per-partition answer deadline, hedges included")
	hedgeAfter := flag.Duration("hedge-after", 50*time.Millisecond, "latency after which a partition query hedges to the next replica (negative disables)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-node /healthz probe deadline")
	maxResults := flag.Int("max-results", 20, "default top-N for queries that name none; set it to the nodes' -max-results for routed answers to equal one node's")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	logJSON := flag.Bool("log-json", false, "emit JSON request logs instead of key=value")
	flag.Parse()

	if *topologyPath == "" {
		fmt.Fprintln(os.Stderr, "fovcluster: -topology is required")
		os.Exit(1)
	}
	topo, err := cluster.Load(*topologyPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovcluster:", err)
		os.Exit(1)
	}

	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	cfg := cluster.RouterConfig{
		Topology:          topo,
		PartitionTimeout:  *partitionTimeout,
		HedgeAfter:        *hedgeAfter,
		ProbeTimeout:      *probeTimeout,
		DefaultMaxResults: *maxResults,
	}
	if !*quiet {
		cfg.Logger = logger
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovcluster:", err)
		os.Exit(1)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovcluster:", err)
		os.Exit(1)
	}
	logger.Info("fovcluster listening",
		"addr", l.Addr().String(), "partitions", len(topo.Partitions),
		"windowMillis", topo.WindowMillis, "hedgeAfter", *hedgeAfter)

	httpSrv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// The write timeout must outlast a full scatter (partition
		// timeout plus merge); double it for headroom.
		WriteTimeout: 2 * *partitionTimeout,
		IdleTimeout:  120 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(l) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "fovcluster:", err)
			os.Exit(1)
		}
	case sig := <-sigs:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
		rt.Close()
	}
}
