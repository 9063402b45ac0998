// The top subcommand: a live terminal dashboard over the server's ops
// plane. Each refresh makes three GETs — /debug/history for sampled
// metric rings (rates and latency percentiles), /stats for the
// replication block, /healthz for the evaluated component report — and
// renders a RED table per endpoint (rate, errors, duration p50/p99),
// ingest and WAL figures, Go runtime gauges, and any non-ok health
// reasons. Pure polling over public endpoints: top works against any
// fovserver with -history enabled, leader or replica.
package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"fovr/internal/client"
	"fovr/internal/obs"
)

func runTop(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	iterations := fs.Int("n", 0, "number of refreshes before exiting (0 = until interrupted)")
	plain := fs.Bool("plain", false, "append frames instead of redrawing in place (for logs/tests)")
	_ = fs.Parse(args)

	for i := 0; *iterations == 0 || i < *iterations; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		frame, err := topFrame(c)
		if err != nil {
			return err
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(frame)
	}
	return nil
}

// topFrame renders one dashboard frame as a string, so tests can
// exercise the full fetch+render path without a terminal.
func topFrame(c *client.Client) (string, error) {
	hist, err := c.History("", 2*time.Minute, "fine")
	if err != nil {
		return "", fmt.Errorf("top: %w (is the server running with -history?)", err)
	}
	st, err := c.Stats()
	if err != nil {
		return "", err
	}
	hr, err := c.Healthz()
	if err != nil {
		return "", err
	}

	last := map[string]float64{}
	for _, s := range hist.Series {
		if n := len(s.Samples); n > 0 {
			last[s.Name] = s.Samples[n-1].Value
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "fovr top — %s  health=%s  uptime=%s  segments=%d\n",
		c.BaseURL, hr.State, (time.Duration(st.UptimeSeconds) * time.Second).String(), st.Segments)
	for _, ch := range hr.Checks {
		for _, r := range ch.Reasons {
			fmt.Fprintf(&b, "  [%s/%s] %s\n", ch.Component, ch.State, r)
		}
	}
	b.WriteString("\n")

	// RED per endpoint, from the latency histogram's derived series.
	endpoints := topEndpoints(last)
	fmt.Fprintf(&b, "%-22s %9s %9s %9s %9s\n", "endpoint", "req/s", "err/s", "p50 ms", "p99 ms")
	for _, ep := range endpoints {
		durKey := fmt.Sprintf("fovr_http_request_seconds{endpoint=%q}", ep)
		fmt.Fprintf(&b, "%-22s %9.1f %9.1f %9.2f %9.2f\n", ep,
			last[durKey+".rate"], topErrRate(last, ep),
			last[durKey+".p50"]*1000, last[durKey+".p99"]*1000)
	}
	if len(endpoints) == 0 {
		b.WriteString("  (no request history yet)\n")
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "ingest: %5.1f registers/s  %5.1f removes/s   wal: %s (gen %d)\n",
		last[`fovr_wal_records_total{op="register"}`],
		last[`fovr_wal_records_total{op="remove"}`],
		topBytes(last["fovr_wal_size_bytes"]), int64(last["fovr_wal_generation"]))
	fmt.Fprintf(&b, "go:     heap %s  goroutines %d  gc pause %s\n",
		topBytes(last[obs.MetricGoHeapBytes]),
		int64(last[obs.MetricGoGoroutines]),
		(time.Duration(last[obs.MetricGoGCPauseNs]) * time.Nanosecond).String())

	if s := st.Storage; s != nil {
		fmt.Fprintf(&b, "storage: %d segments (%s, %d entries)  memtable %d  backlog %d  %.1f compactions/s\n",
			s.Segments, topBytes(float64(s.SegmentBytes)), s.SegmentEntries,
			s.MemtableEntries, s.CompactionBacklog,
			last["fovr_store_compactions_total"])
	}
	if st.ReadOnly && st.Replication != nil {
		r := st.Replication
		lag := "unknown (behind a generation)"
		switch {
		case r.State == "bootstrapping":
			// No batch applied yet: LagBytes is the -1 sentinel, not a
			// measurement.
			lag = "bootstrapping"
		case r.LagBytes >= 0:
			lag = topBytes(float64(r.LagBytes))
		}
		fmt.Fprintf(&b, "replica: leader=%s state=%s caughtUp=%v lag=%s applied=%d\n",
			st.Leader, r.State, r.CaughtUp, lag, r.AppliedRecords)
	}
	return b.String(), nil
}

// topEndpoints extracts the endpoint labels that have latency history.
func topEndpoints(last map[string]float64) []string {
	const prefix = `fovr_http_request_seconds{endpoint="`
	seen := map[string]bool{}
	for name := range last {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		end := strings.Index(rest, `"`)
		if end < 0 {
			continue
		}
		seen[rest[:end]] = true
	}
	eps := make([]string, 0, len(seen))
	for ep := range seen {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	return eps
}

// topErrRate sums the request-count rates for 4xx/5xx codes on one
// endpoint. Counter series are stored in history under their own name,
// already converted to per-second rates.
func topErrRate(last map[string]float64, endpoint string) float64 {
	prefix := fmt.Sprintf("fovr_http_requests_total{endpoint=%q,code=\"", endpoint)
	total := 0.0
	for name, v := range last {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, `"}`) {
			continue
		}
		code := strings.TrimSuffix(name[len(prefix):], `"}`)
		if len(code) == 3 && (code[0] == '4' || code[0] == '5') {
			total += v
		}
	}
	return total
}

func topBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

// healthLine is used by the health subcommand: the one-line summary
// plus per-component detail.
func runHealth(c *client.Client) error {
	hr, err := c.Healthz()
	if err != nil {
		return err
	}
	fmt.Printf("overall: %s (evaluated %s)\n", hr.State, hr.EvaluatedAt)
	for _, ch := range hr.Checks {
		fmt.Printf("  %-8s %s", ch.Component, ch.State)
		if len(ch.Reasons) > 0 {
			fmt.Printf("  %s", strings.Join(ch.Reasons, "; "))
		}
		fmt.Println()
	}
	return nil
}
