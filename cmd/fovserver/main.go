// Command fovserver runs the cloud side of the content-free video
// retrieval system: an HTTP service that accepts representative-FoV
// uploads from capture clients and answers ranked spatio-temporal
// queries (see package server for the API).
//
// Usage:
//
//	fovserver [-addr :8477] [-half-angle 30] [-radius 100] [-max-results 20]
//	          [-data-dir dir] [-fsync always|interval|never] [-checkpoint-interval 5m]
//	          [-replica-of http://leader:8477] [-replica-poll 10s]
//	          [-quiet] [-log-json]
//	          [-debug-addr 127.0.0.1:8478] [-slow-query 100ms] [-trace-sample 16]
//	          [-cluster-topology topology.json -cluster-partition p0]
//
// -cluster-topology/-cluster-partition make this node one partition of
// a fovcluster deployment (see cmd/fovcluster): uploads whose
// representatives the topology routes elsewhere are rejected with HTTP
// 421, and assigned segment ids are offset into the partition's
// disjoint id space so ids are globally unique across the cluster.
//
// -data-dir makes ingest durable: every upload and removal is journaled
// to a write-ahead log in the directory before it is acknowledged; every
// -checkpoint-interval (0 disables) a checkpoint seals what was
// journaled since the last one into immutable, compressed, CRC-framed
// segment files, one per one-hour time window, and retires the log
// below it; a restart recovers the manifest's segments plus the log
// from its base generation — a kill -9 loses nothing that was
// acknowledged under -fsync=always.
// -fsync=interval syncs the log every 100ms (bounded loss, near-memory
// throughput); -fsync=never leaves syncing to the OS. Without -data-dir
// state is in RAM only, as before.
//
// -replica-of makes this process a read replica of the leader at the
// given base URL, which needs -data-dir (the replica does not): it
// bootstraps from the leader's manifest and each sealed segment it does
// not hold, then tails the leader's write-ahead log from the manifest's
// base generation (long-polling every -replica-poll), serves the full read path
// (/query, /nearest, /stats, /metrics, traces), and rejects mutations
// with HTTP 409 naming the leader. A replica that restarts or lags past
// the leader's log retention re-bootstraps automatically. With
// -data-dir the replica is durable: each installed segment is on disk
// before the next is fetched, so a re-bootstrap fetches only the
// segments it lacks, and restarting it without -replica-of is the
// failover path — it serves the replicated state as a writable leader.
// Without -data-dir the replica holds its state in RAM.
//
// The index is one copy-on-write 3-D R-tree (the paper's design):
// writers serialize on its lock and publish a snapshot, queries walk the
// latest snapshot without locks.
//
// A SIGINT/SIGTERM drains connections and, with -data-dir, checkpoints
// and closes the store. -data-dir and replication are the only ways
// state enters or leaves the process.
//
// Observability: the API itself serves GET /metrics (Prometheus text
// format; `fovctl top` renders rates and latency percentiles from two
// scrapes of it) and GET /healthz (an evaluated per-component health
// report — HTTP 503 when the overall state is failing, e.g. after a
// sticky WAL write/fsync failure). -debug-addr additionally opens a
// second listener carrying net/http/pprof under /debug/pprof/ plus a
// /metrics alias — keep it bound to localhost, profiling endpoints are
// not meant for the open internet. While it is up the runtime mutex and
// block profilers are on, so /debug/pprof/mutex?seconds=N and
// /debug/pprof/block?seconds=N name the contended frames of a window.
// Request logs are structured (log/slog) with per-request ids;
// -log-json switches them from key=value to JSON.
//
// Every query is traced; traces are tail-sampled into a bounded ring
// served on GET /debug/traces. -slow-query sets the slow-query log and
// retention threshold (0 disables slow detection); -trace-sample keeps
// one in N ordinary queries (0 keeps none). Errored queries are always
// retained.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fovr/internal/client"
	"fovr/internal/cluster"
	"fovr/internal/fov"
	"fovr/internal/replica"
	"fovr/internal/server"
	"fovr/internal/store"
)

func main() {
	addr := flag.String("addr", ":8477", "listen address")
	halfAngle := flag.Float64("half-angle", 30, "camera viewing half-angle alpha in degrees")
	radius := flag.Float64("radius", 100, "radius of view R in meters")
	maxResults := flag.Int("max-results", 20, "default top-N for queries")
	dataDir := flag.String("data-dir", "", "data directory for the durable store (WAL + manifest + sealed segments); empty keeps state in RAM only")
	fsyncPolicy := flag.String("fsync", "always", "WAL sync policy with -data-dir: always | interval | never")
	checkpointInterval := flag.Duration("checkpoint-interval", 5*time.Minute, "background checkpoint period with -data-dir (0 disables)")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	logJSON := flag.Bool("log-json", false, "emit JSON request logs instead of key=value")
	debugAddr := flag.String("debug-addr", "", "optional second listener with /debug/pprof/ and /metrics (e.g. 127.0.0.1:8478); turns the mutex and block profilers on")
	slowQuery := flag.Duration("slow-query", 100*time.Millisecond, "slow-query threshold for the slow log and trace retention (0 disables)")
	traceSample := flag.Int("trace-sample", 16, "retain 1 in N ordinary query traces (0 retains none)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the leader at this base URL (e.g. http://leader:8477)")
	replicaPoll := flag.Duration("replica-poll", 10*time.Second, "long-poll wait per replication fetch with -replica-of")
	clusterTopology := flag.String("cluster-topology", "", "cluster topology file; with -cluster-partition, rejects misrouted uploads (HTTP 421) and offsets assigned ids")
	clusterPartition := flag.String("cluster-partition", "", "this node's partition id in -cluster-topology")
	flag.Parse()

	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	cfg := server.Config{
		Camera:             fov.Camera{HalfAngleDeg: *halfAngle, RadiusMeters: *radius},
		DefaultMaxResults:  *maxResults,
		SlowQueryThreshold: *slowQuery,
		TraceSampleRate:    *traceSample,
	}
	// Flag value 0 means "off"; the Config zero value means "default",
	// so translate explicitly.
	if *slowQuery == 0 {
		cfg.SlowQueryThreshold = -1
	}
	if *traceSample == 0 {
		cfg.TraceSampleRate = -1
	}
	if !*quiet {
		cfg.Logger = logger
	}
	if *replicaOf != "" {
		cfg.ReadOnly = true
		cfg.LeaderURL = *replicaOf
	}
	if (*clusterTopology == "") != (*clusterPartition == "") {
		fmt.Fprintln(os.Stderr, "fovserver: -cluster-topology and -cluster-partition must be set together")
		os.Exit(1)
	}
	if *clusterTopology != "" {
		topo, err := cluster.Load(*clusterTopology)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovserver:", err)
			os.Exit(1)
		}
		base, err := topo.IDBase(*clusterPartition)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovserver:", err)
			os.Exit(1)
		}
		cfg.IDBase = base
		cfg.OwnsRep = topo.OwnsRep(*clusterPartition)
	}
	var st *store.Disk
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovserver:", err)
			os.Exit(1)
		}
		interval := *checkpointInterval
		if interval == 0 {
			interval = -1 // flag 0 means "off"; Options zero means "default"
		}
		st, err = store.Open(store.Options{
			Dir:                *dataDir,
			Fsync:              policy,
			CheckpointInterval: interval,
			Logger:             logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovserver:", err)
			os.Exit(1)
		}
		entries, elapsed := st.RecoveryStats()
		logger.Info("durable store open",
			"dir", *dataDir, "fsync", string(policy),
			"recoveredEntries", entries, "recovery", elapsed.Round(time.Millisecond))
		cfg.Store = st
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovserver:", err)
		os.Exit(1)
	}
	var fol *replica.Follower
	if *replicaOf != "" {
		fol, err = replica.Start(replica.Options{
			Fetch:    client.NewReplicator(*replicaOf),
			Apply:    srv,
			Poll:     *replicaPoll,
			Registry: srv.Registry(),
			Logger:   logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovserver:", err)
			os.Exit(1)
		}
		srv.AttachFollower(fol)
		logger.Info("replicating", "leader", *replicaOf, "poll", *replicaPoll)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovserver:", err)
		os.Exit(1)
	}
	logger.Info("fovserver listening",
		"addr", l.Addr().String(), "halfAngleDeg", *halfAngle, "radiusMeters", *radius,
		"readOnly", *replicaOf != "")

	if *debugAddr != "" {
		enableContentionProfiles()
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovserver: debug listener:", err)
			os.Exit(1)
		}
		go func() {
			logger.Info("debug listener up", "addr", dl.Addr().String())
			if err := http.Serve(dl, debugMux(srv)); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	httpSrv := srv.HTTPServer()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(l) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "fovserver:", err)
			os.Exit(1)
		}
	case sig := <-sigs:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
		if fol != nil {
			// Stop pulling before closing the store so no apply races the
			// final checkpoint.
			fol.Close()
		}
		if st != nil {
			// Checkpoint on the way out so the next boot loads one file
			// instead of replaying the log, then sync and close it.
			if err := st.Checkpoint(); err != nil {
				logger.Error("final checkpoint failed", "err", err)
			}
			if err := st.Close(); err != nil {
				logger.Error("store close failed", "err", err)
			}
		}
	}
}

// The runtime contention profilers' rates while the debug listener is
// up — the only place their output can be read: 1 in 5 contended mutex
// events, and blocking sampled at one event per 100µs blocked. Cheap
// enough to leave on under saturation.
const (
	mutexProfileFraction = 5
	blockProfileRateNs   = 100_000
)

// enableContentionProfiles turns on the runtime mutex and block
// profilers that /debug/pprof/mutex and /debug/pprof/block serve.
func enableContentionProfiles() {
	runtime.SetMutexProfileFraction(mutexProfileFraction)
	runtime.SetBlockProfileRate(blockProfileRateNs)
}

// debugMux serves the pprof profiling endpoints plus a metrics alias on
// the side listener. Registering pprof by hand (instead of importing the
// package for its DefaultServeMux side effect) keeps the profiling
// surface off the public API listener.
func debugMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = srv.Registry().WritePrometheus(w)
	})
	return mux
}
