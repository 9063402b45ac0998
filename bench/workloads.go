package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"fovr/internal/cluster"
	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/server"
	"fovr/internal/store"
)

// workloadDef is one traffic mix. The why lines are repeated in
// BENCHMARK.json and explained in bench/README.md.
type workloadDef struct {
	name    string
	query   shape // 7 of 8 read requests (all of them when nearest is zero)
	nearest shape // every 8th read request; zero for none
	writer  bool  // connection 0 also carries the open-loop write stream
	// ownerOf assigns corpus entries to cluster partitions when uploads
	// are grouped; nil on single nodes.
	ownerOf func(index.Entry) (int, error)
	// setup stands the program up into sys; on error the caller closes
	// whatever sys already holds.
	setup func(ctx context.Context, sys *system, in *inputs, env *runEnv) error
}

var workloads = []*workloadDef{
	{name: "query_point", query: shapePoint, setup: setupMemNode},
	{name: "query_scan", query: shapeScan, nearest: shapeNearest, setup: setupMemNode},
	{name: "cluster_query", query: shapeWide, nearest: shapeWideNearest, ownerOf: partitionOf, setup: setupCluster},
	{name: "mixed_durable", query: shapePoint, writer: true, setup: setupDurableNode},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// writerInterval is the write stream's fixed schedule: 100 uploads a
// second, whatever the commit under test can sustain.
const writerInterval = 10 * time.Millisecond

// camera is the one non-default setting every server gets.
var camera = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

// nodeConfig is the zero-value serving configuration plus the camera
// and a private registry, so the benchmark follows whatever the default
// serving configuration is.
func nodeConfig() server.Config {
	return server.Config{Camera: camera, Registry: obs.NewRegistry()}
}

// runEnv is what a set-up needs besides the inputs.
type runEnv struct {
	tr  *tracer // nil in untraced runs
	tmp string  // parent of every temp dir
	ids []uint64
}

// system is one stood-up instance of the program under test.
type system struct {
	addr      string           // where the generator connects
	nodes     []*server.Server // the serving node, or the partitions in topology order
	topo      *cluster.Topology
	disk      *store.Disk
	storeOpts store.Options
	ingestS   float64 // seconds spent loading the corpus
	serving   closers // listeners, servers, stores
	files     closers // temp dirs, removed after serving has stopped
}

func (s *system) close() {
	s.serving.close()
	s.files.close()
}

// preload registers uploads in order through Server.Register and
// records the ids the server assigned.
func preload(ctx context.Context, srv *server.Server, ups []upload, only int, ids []uint64) error {
	for i := range ups {
		u := &ups[i]
		if u.owner != only {
			continue
		}
		if i%512 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		got, err := srv.Register(u.u)
		if err != nil {
			return fmt.Errorf("register upload %d: %w", i, err)
		}
		copy(ids[u.first:], got)
	}
	return nil
}

// serveNode puts a node's handler on a listener, inside the tracer's
// middleware in traced runs.
func serveNode(cl *closers, srv *server.Server, node int, tr *tracer) (string, error) {
	h := srv.Handler()
	if tr != nil {
		h = tr.wrap(spanServer, node, h)
	}
	return listen(cl, h)
}

// setupMemNode is one node on store.Mem with the corpus preloaded.
func setupMemNode(ctx context.Context, sys *system, in *inputs, env *runEnv) error {
	srv, err := server.New(nodeConfig())
	if err != nil {
		return err
	}
	sys.serving.add(srv.Close)
	sys.nodes = []*server.Server{srv}
	start := time.Now()
	if err := preload(ctx, srv, in.corpus, 0, env.ids); err != nil {
		return err
	}
	sys.ingestS = time.Since(start).Seconds()
	if sys.addr, err = serveNode(&sys.serving, srv, 0, env.tr); err != nil {
		return err
	}
	return nil
}

// partitionWindows splits the 24 one-hour window keys of the corpus
// 8/8/8, with the two edge keys a query's fan-out range can reach.
var partitionWindows = []cluster.WindowRange{{From: -1, To: 7}, {From: 8, To: 15}, {From: 16, To: 24}}

func clusterTopology(leaders []string) (*cluster.Topology, error) {
	t := &cluster.Topology{WindowMillis: hourMillis}
	for i, w := range partitionWindows {
		t.Partitions = append(t.Partitions, cluster.Partition{
			ID: fmt.Sprintf("p%d", i), Leader: leaders[i], Windows: []cluster.WindowRange{w},
		})
	}
	return t, t.Validate()
}

// ownership answers "which partition owns this rep"; it does not depend
// on where the partitions listen.
var ownership = func() *cluster.Topology {
	t, err := clusterTopology([]string{"http://p0", "http://p1", "http://p2"})
	if err != nil {
		panic(err)
	}
	return t
}()

func partitionOf(e index.Entry) (int, error) {
	p, err := ownership.OwnerOfRep(e.Rep)
	if err != nil {
		return 0, err
	}
	for i := range ownership.Partitions {
		if &ownership.Partitions[i] == p {
			return i, nil
		}
	}
	return 0, fmt.Errorf("partition %q not in topology", p.ID)
}

// setupCluster is three sharded partition servers and one router, each
// on its own loopback listener.
func setupCluster(ctx context.Context, sys *system, in *inputs, env *runEnv) error {
	// Partition clients use http.DefaultTransport; drop its idle
	// connections with the cluster so nothing outlives the run.
	sys.serving.add(http.DefaultTransport.(*http.Transport).CloseIdleConnections)
	leaders := make([]string, len(partitionWindows))
	start := time.Now()
	for i := range partitionWindows {
		id := ownership.Partitions[i].ID
		cfg := nodeConfig()
		cfg.IndexKind = server.IndexKindSharded
		cfg.ShardWindow = time.Hour
		cfg.OwnsRep = ownership.OwnsRep(id)
		var err error
		if cfg.IDBase, err = ownership.IDBase(id); err != nil {
			return err
		}
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		sys.serving.add(srv.Close)
		sys.nodes = append(sys.nodes, srv)
		if err := preload(ctx, srv, in.corpus, i, env.ids); err != nil {
			return err
		}
	}
	sys.ingestS = time.Since(start).Seconds()
	for i, srv := range sys.nodes {
		addr, err := serveNode(&sys.serving, srv, i, env.tr)
		if err != nil {
			return err
		}
		leaders[i] = "http://" + addr
	}
	topo, err := clusterTopology(leaders)
	if err != nil {
		return err
	}
	sys.topo = topo
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	h := rt.Handler()
	if env.tr != nil {
		h = env.tr.wrap(spanRouter, -1, h)
	}
	if sys.addr, err = listen(&sys.serving, h); err != nil {
		return err
	}
	return nil
}

// durableOptions is the store configuration of mixed_durable. The
// flush policy is stated and fixed so numbers measure the program, not
// the sandbox disk; the short intervals let several checkpoint and
// compaction cycles complete inside one measured window.
func durableOptions(dir string) store.Options {
	return store.Options{
		Dir:                dir,
		Fsync:              store.FsyncInterval,
		FsyncEvery:         100 * time.Millisecond,
		CheckpointInterval: 5 * time.Second,
		SegmentWindowAge:   time.Hour,
		CompactionInterval: 2 * time.Second,
		Registry:           obs.NewRegistry(),
	}
}

// uploadAck mirrors the JSON acknowledgement of POST /upload.
type uploadAck struct {
	IDs []uint64 `json:"ids"`
}

// recordAck stores the ids of one acknowledged upload.
func recordAck(ids []uint64, u *upload, body []byte) error {
	var ack uploadAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("upload ack %q: %w", body, err)
	}
	if len(ack.IDs) != len(u.u.Reps) {
		return fmt.Errorf("upload ack has %d ids for %d reps", len(ack.IDs), len(u.u.Reps))
	}
	copy(ids[u.first:], ack.IDs)
	return nil
}

// openDurable opens the store and a node on it, and serves the node.
func openDurable(opts store.Options, cl *closers, tr *tracer) (*store.Disk, *server.Server, string, error) {
	disk, err := store.Open(opts)
	if err != nil {
		return nil, nil, "", err
	}
	cl.add(func() { _ = disk.Close() })
	cfg := nodeConfig()
	cfg.Store = disk
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, "", err
	}
	cl.add(srv.Close)
	addr, err := serveNode(cl, srv, 0, tr)
	return disk, srv, addr, err
}

// setupDurableNode is one node on a tiered store.Disk in a temp dir. The
// corpus is loaded over HTTP binary /upload by two closed-loop
// connections into a first incarnation of the node whose background
// compaction and checkpointing are off, then sealed and checkpointed;
// the node that serves the window is a restart on that data dir with
// the workload's intervals. How many background ticks fall into the
// load would otherwise depend on how long it takes, and the store's
// heap with it (425 to 502 B per entry were seen).
func setupDurableNode(ctx context.Context, sys *system, in *inputs, env *runEnv) error {
	dir, err := os.MkdirTemp(env.tmp, "fovr-bench-*")
	if err != nil {
		return err
	}
	sys.files.add(func() { _ = os.RemoveAll(dir) })
	sys.storeOpts = durableOptions(dir)

	var loading closers
	defer loading.close()
	quiet := sys.storeOpts
	quiet.CheckpointInterval, quiet.CompactionInterval = -1, -1
	quiet.Registry = obs.NewRegistry()
	disk, _, addr, err := openDurable(quiet, &loading, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for j := range errs {
		c, err := dial(&loading, addr)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; i < len(in.corpus) && ctx.Err() == nil; i += len(errs) {
				u := &in.corpus[i]
				status, err := c.do(&u.req, "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, c.body)
				}
				if err == nil {
					err = recordAck(env.ids, u, c.body)
				}
				if err != nil {
					errs[j] = fmt.Errorf("ingest upload %d: %w", i, err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	sys.ingestS = time.Since(start).Seconds()
	for _, err := range append(errs, ctx.Err()) {
		if err != nil {
			return err
		}
	}
	if err := disk.CompactNow(); err != nil {
		return fmt.Errorf("compact after ingest: %w", err)
	}
	if err := disk.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint after ingest: %w", err)
	}
	loading.close()

	var srv *server.Server
	if sys.disk, srv, sys.addr, err = openDurable(sys.storeOpts, &sys.serving, env.tr); err != nil {
		return err
	}
	sys.nodes = []*server.Server{srv}
	return nil
}
