// Command fovctl is the client CLI of the content-free video retrieval
// system. It simulates a capture session (a mobility scenario producing
// the sensor stream a phone would record), segments it in real time,
// uploads the representative FoVs, and runs queries.
//
// Usage:
//
//	fovctl -server http://127.0.0.1:8477 capture -scenario walk -provider alice
//	fovctl -server http://127.0.0.1:8477 query -lat 40.0013 -lng 116.326 -radius 20 -from 0 -to 60000
//	fovctl -server http://127.0.0.1:8477 explain -lat 40.0013 -lng 116.326 -radius 20 -from 0 -to 60000
//	fovctl -server http://127.0.0.1:8477 traces [-id q42]
//	fovctl -server http://127.0.0.1:8477 forget -provider alice
//	fovctl -server http://127.0.0.1:8477 checkpoint
//	fovctl -server http://127.0.0.1:8477 stats
//	fovctl -server http://127.0.0.1:8479 replication
//	fovctl -server http://127.0.0.1:8477 storage
//	fovctl -server http://127.0.0.1:8477 top -interval 2s
//	fovctl -server http://127.0.0.1:8477 health
//	fovctl -server http://127.0.0.1:8479 cluster
//
// explain runs a query with explain=1 and prints the server's execution
// trace: per-stage timings, R-tree traversal counters, and every
// candidate the orientation filter rejected with the offending angle.
// traces lists the server's retained (tail-sampled) traces, or dumps one
// by id.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/trace"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8477", "server base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := client.New(*serverURL)
	var err error
	switch args[0] {
	case "capture":
		err = runCapture(c, args[1:])
	case "query":
		err = runQuery(c, args[1:])
	case "explain":
		err = runExplain(c, args[1:])
	case "traces":
		err = runTraces(c, args[1:])
	case "forget":
		err = runForget(c, args[1:])
	case "checkpoint":
		err = runCheckpoint(c)
	case "stats":
		err = runStats(c)
	case "replication":
		err = runReplication(c)
	case "storage":
		err = runStorage(c)
	case "top":
		err = runTop(c, args[1:])
	case "health":
		err = runHealth(c)
	case "cluster":
		err = runCluster(*serverURL)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovctl:", err)
		os.Exit(1)
	}
}

func newRand() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fovctl [-server URL] <capture|query|explain|traces|forget|checkpoint|stats|replication|storage|top|health|cluster> [flags]
  capture -scenario walk|walk-side|rotate|drive|bike -provider NAME [-threshold 0.5] [-noise]
  query    -lat L -lng L [-radius 20] [-from ms] [-to ms] [-top 10]
  explain  -lat L -lng L [-radius 20] [-from ms] [-to ms] [-top 10]
  traces   [-id TRACE]
  forget   -provider NAME
  checkpoint
  stats
  replication
  storage  tiered storage state (segments, memtable, window seals) from /stats
  top      [-interval 2s] [-n 0] [-plain]   live ops dashboard over /metrics, /stats and /healthz
  health   evaluated component health from /healthz
  cluster  router topology + per-partition health (point -server at fovcluster)`)
	os.Exit(2)
}

func runCapture(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	scenario := fs.String("scenario", "walk", "walk|walk-side|rotate|drive|bike")
	provider := fs.String("provider", "anonymous", "provider identity")
	threshold := fs.Float64("threshold", 0.5, "segmentation threshold")
	noise := fs.Bool("noise", false, "apply default sensor noise")
	_ = fs.Parse(args)

	cfg := trace.DefaultConfig
	var samples []fov.Sample
	var err error
	switch *scenario {
	case "walk":
		samples, err = trace.WalkAhead(cfg)
	case "walk-side":
		samples, err = trace.WalkSideways(cfg)
	case "rotate":
		samples, err = trace.Rotation(cfg)
	case "drive":
		samples, err = trace.DriveStraight(cfg)
	case "bike":
		samples, err = trace.BikeWithTurn(cfg)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}
	if *noise {
		samples = trace.DefaultNoise.Apply(newRand(), samples)
	}

	sess, err := client.NewCaptureSession(*provider, segment.Config{
		Camera:    fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Threshold: *threshold,
		// Circular azimuth averaging: the paper's plain Eq. 11 mean
		// misplaces representatives when noisy azimuths straddle north
		// (see the abstraction ablation).
		CircularMean: true,
	})
	if err != nil {
		return err
	}
	if err := sess.PushAll(samples); err != nil {
		return err
	}
	upload := sess.Stop()
	ids, traceID, err := c.UploadTraced(upload, "")
	if err != nil {
		return err
	}
	fmt.Printf("captured %d frames -> %d segments, uploaded %d bytes, ids %v\n",
		len(samples), len(upload.Reps), c.Traffic.Sent(), ids)
	fmt.Printf("trace %s (follow it: fovctl traces -id %s, on followers too once replicated)\n",
		traceID, traceID)
	return nil
}

func runQuery(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	lat := fs.Float64("lat", trace.ScenarioOrigin.Lat, "query center latitude")
	lng := fs.Float64("lng", trace.ScenarioOrigin.Lng, "query center longitude")
	radius := fs.Float64("radius", 20, "query radius in meters")
	from := fs.Int64("from", 0, "start millis")
	to := fs.Int64("to", 60_000, "end millis")
	top := fs.Int("top", 10, "max results")
	_ = fs.Parse(args)

	results, elapsed, err := c.Query(query.Query{
		StartMillis:  *from,
		EndMillis:    *to,
		Center:       geo.Point{Lat: *lat, Lng: *lng},
		RadiusMeters: *radius,
	}, *top)
	if err != nil {
		return err
	}
	fmt.Printf("%d results in %v (server-side)\n", len(results), elapsed)
	for i, r := range results {
		fmt.Printf("%2d. segment %d by %s: %.1f m away, facing %.0f°, t=[%d, %d]\n",
			i+1, r.Entry.ID, r.Entry.Provider, r.DistanceMeters,
			r.Entry.Rep.FoV.Theta, r.Entry.Rep.StartMillis, r.Entry.Rep.EndMillis)
	}
	return nil
}

func runExplain(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	lat := fs.Float64("lat", trace.ScenarioOrigin.Lat, "query center latitude")
	lng := fs.Float64("lng", trace.ScenarioOrigin.Lng, "query center longitude")
	radius := fs.Float64("radius", 20, "query radius in meters")
	from := fs.Int64("from", 0, "start millis")
	to := fs.Int64("to", 60_000, "end millis")
	top := fs.Int("top", 10, "max results")
	_ = fs.Parse(args)

	resp, err := c.QueryExplain(query.Query{
		StartMillis:  *from,
		EndMillis:    *to,
		Center:       geo.Point{Lat: *lat, Lng: *lng},
		RadiusMeters: *radius,
	}, *top)
	if err != nil {
		return err
	}
	fmt.Printf("%d results in %v (server-side)\n", len(resp.Results), time.Duration(resp.ElapsedMicros)*time.Microsecond)
	for i, r := range resp.Results {
		fmt.Printf("%2d. segment %d by %s: %.1f m away, facing %.0f°, t=[%d, %d]\n",
			i+1, r.Entry.ID, r.Entry.Provider, r.DistanceMeters,
			r.Entry.Rep.FoV.Theta, r.Entry.Rep.StartMillis, r.Entry.Rep.EndMillis)
	}
	if resp.Trace == nil {
		return fmt.Errorf("explain: server returned no trace (old server?)")
	}
	fmt.Println()
	printTrace(resp.Trace, true)
	return nil
}

func runTraces(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	id := fs.String("id", "", "dump one retained trace by id instead of listing")
	_ = fs.Parse(args)

	if *id != "" {
		tr, err := c.Trace(*id)
		if err != nil {
			return err
		}
		printTrace(tr, true)
		return nil
	}
	resp, err := c.Traces()
	if err != nil {
		return err
	}
	fmt.Printf("retained %d of %d observed traces (errors %d, slow %d at >%gms, sampled %d at 1/%d)\n",
		len(resp.Traces), resp.Stats.Observed, resp.Stats.KeptError,
		resp.Stats.KeptSlow, resp.SlowThresholdMillis, resp.Stats.KeptSampled, resp.SampleRate)
	for _, tr := range resp.Traces {
		printTrace(tr, false)
	}
	return nil
}

// printTrace renders a query trace: one summary line per trace in list
// mode, plus the stage/drop breakdown when verbose.
func printTrace(tr *obs.QueryTrace, verbose bool) {
	status := tr.Class
	if status == "" {
		status = "inline"
	}
	if tr.Err != "" {
		status += " err=" + tr.Err
	}
	fmt.Printf("%-8s %-8s total=%-10v returned=%d/%d  %s\n",
		tr.ID, status, tr.Total().Round(time.Microsecond), tr.Returned, tr.Ranked, tr.Query)
	if !verbose {
		return
	}
	fmt.Printf("  index:  %d nodes visited, %d leaf entries scanned, %d handed to the filter\n",
		tr.NodesVisited, tr.LeafEntriesScanned, tr.Candidates)
	if tr.DropsTotal > 0 {
		fmt.Printf("  filter: dropped %d", tr.DropsTotal)
		for reason, n := range tr.DropCounts {
			fmt.Printf("  %s=%d", reason, n)
		}
		fmt.Println()
		for _, d := range tr.Drops {
			switch d.Reason {
			case obs.DropOrientation:
				fmt.Printf("    segment %d: facing %.1f° off the query center, limit %.1f°\n",
					d.EntryID, d.AngleDeg, d.LimitDeg)
			default:
				fmt.Printf("    segment %d: %s (%.1f m away)\n", d.EntryID, d.Reason, d.DistanceMeters)
			}
		}
	}
	if len(tr.Stages) > 0 {
		fmt.Printf("  stages: %s\n", tr.StageSummary())
	}
	if tr.Truncated > 0 {
		// The walk stops looking past the worst result kept, so this is
		// a floor on the covering cameras left out, not their number.
		fmt.Printf("  rank:   at least %d more beyond top-%d (the walk stopped looking past %.1f m)\n",
			tr.Truncated, tr.Returned, tr.BoundMeters)
	}
}

func runStats(c *client.Client) error {
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("segments: %d  providers: %d  index height: %d  bytes in/out: %d/%d  uptime: %.0fs\n",
		st.Segments, len(st.Providers), st.IndexHeight, st.BytesIn, st.BytesOut, st.UptimeSeconds)
	return nil
}

// runReplication prints the replication block of /stats: on a read
// replica, its cursor, lag, and error counters; on a leader, its role.
func runReplication(c *client.Client) error {
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if !st.ReadOnly {
		fmt.Printf("role: leader (writable), %d segments, durable=%v\n", st.Segments, st.Durable)
		return nil
	}
	fmt.Printf("role: read replica of %s\n", st.Leader)
	r := st.Replication
	if r == nil {
		return fmt.Errorf("replication: replica reported no follower status")
	}
	fmt.Printf("state: %s  caught up: %v\n", r.State, r.CaughtUp)
	fmt.Printf("cursor: %s  leader head: %s", r.Cursor, r.Lead)
	switch {
	case r.State == "bootstrapping":
		// No batch applied yet: LagBytes holds the -1 sentinel, not a
		// measurement.
		fmt.Printf("  lag: bootstrapping")
	case r.LagBytes >= 0:
		fmt.Printf("  lag: %d bytes", r.LagBytes)
	default:
		fmt.Printf("  lag: unknown (behind a generation)")
	}
	fmt.Println()
	fmt.Printf("applied: %d records, %d bytes  bootstraps: %d\n",
		r.AppliedRecords, r.AppliedBytes, r.Bootstraps)
	if r.FetchErrors > 0 || r.ApplyErrors > 0 || r.LastError != "" {
		fmt.Printf("errors: fetch=%d apply=%d last=%q\n", r.FetchErrors, r.ApplyErrors, r.LastError)
	}
	return nil
}

func runCheckpoint(c *client.Client) error {
	resp, err := c.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("checkpointed %d entries in %.1f ms (WAL truncated)\n",
		resp.Entries, float64(resp.ElapsedMicros)/1000)
	return nil
}

func runForget(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("forget", flag.ExitOnError)
	provider := fs.String("provider", "", "provider whose segments to delete")
	_ = fs.Parse(args)
	if *provider == "" {
		return fmt.Errorf("forget: -provider required")
	}
	removed, err := c.Forget(*provider)
	if err != nil {
		return err
	}
	fmt.Printf("removed %d segments contributed by %s\n", removed, *provider)
	return nil
}
