// The top subcommand: a live terminal dashboard over the server's ops
// plane. Each refresh makes three GETs — /metrics, /stats for the
// storage and replication blocks, /healthz for the evaluated component
// report — and keeps the /metrics scrape for the next one. Everything
// per second is a counter's gain between two scrapes over the time
// between them, and an endpoint's p50/p99 are estimated from the
// latency buckets it gained in that window (obs.Scrape.Quantile, the
// estimate obs.Histogram.Quantile makes); an endpoint with no requests
// in the window shows "-". The first frame's two scrapes are one
// -interval apart. It renders a RED table per endpoint (rate, errors,
// duration p50/p99), ingest and WAL figures, Go runtime gauges, storage
// and replica lines, and any non-ok health reasons. Pure polling over
// public endpoints: top works against any fovserver, leader or replica.
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

	prev, err := scrape(c)
	if err != nil {
		return err
	}
	for i := 0; *iterations == 0 || i < *iterations; i++ {
		time.Sleep(*interval)
		f, err := topFrame(c, prev)
		if err != nil {
			return err
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(f.text)
		prev = f.cur
	}
	return nil
}

// sample is one /metrics scrape and when it was taken.
type sample struct {
	at time.Time
	m  obs.Scrape
}

func scrape(c *client.Client) (sample, error) {
	at := time.Now()
	m, err := c.Metrics()
	if err != nil {
		return sample{}, fmt.Errorf("top: %w", err)
	}
	return sample{at: at, m: m}, nil
}

// endpointRow is one line of the RED table over the window between two
// scrapes: requests and errors per second, latencies in seconds, and
// the requests the latencies are over.
type endpointRow struct {
	endpoint         string
	reqRate, errRate float64
	p50, p99         float64
	requests         float64
}

// frame is one refresh: the scrape it ends with, its RED rows and the
// rendered text.
type frame struct {
	cur  sample
	rows []endpointRow
	text string
}

// topFrame scrapes once more and renders the window since prev, so
// tests can exercise the full fetch+render path without a terminal.
func topFrame(c *client.Client, prev sample) (frame, error) {
	cur, err := scrape(c)
	if err != nil {
		return frame{}, err
	}
	st, err := c.Stats()
	if err != nil {
		return frame{}, err
	}
	hr, err := c.Healthz()
	if err != nil {
		return frame{}, err
	}
	gain := cur.m.Since(prev.m)
	secs := cur.at.Sub(prev.at).Seconds()
	perSec := func(n float64) float64 {
		if secs <= 0 {
			return 0
		}
		return n / secs
	}
	rate := func(name string) float64 { return perSec(gain[name]) }
	f := frame{cur: cur, rows: endpointRows(cur.m, gain, perSec)}
	last := cur.m

	var b strings.Builder
	fmt.Fprintf(&b, "fovr top — %s  health=%s  uptime=%s  segments=%d\n",
		c.BaseURL, hr.State, (time.Duration(st.UptimeSeconds) * time.Second).String(), st.Segments)
	for _, ch := range hr.Checks {
		for _, r := range ch.Reasons {
			fmt.Fprintf(&b, "  [%s/%s] %s\n", ch.Component, ch.State, r)
		}
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "%-22s %9s %9s %9s %9s\n", "endpoint", "req/s", "err/s", "p50 ms", "p99 ms")
	for _, r := range f.rows {
		p50, p99 := "-", "-"
		if r.requests > 0 {
			p50, p99 = fmt.Sprintf("%.2f", r.p50*1000), fmt.Sprintf("%.2f", r.p99*1000)
		}
		fmt.Fprintf(&b, "%-22s %9.1f %9.1f %9s %9s\n", r.endpoint, r.reqRate, r.errRate, p50, p99)
	}
	if len(f.rows) == 0 {
		b.WriteString("  (no endpoints instrumented)\n")
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "ingest: %5.1f registers/s  %5.1f removes/s   wal: %s (gen %d)\n",
		rate(`fovr_wal_records_total{op="register"}`),
		rate(`fovr_wal_records_total{op="remove"}`),
		topBytes(last["fovr_wal_size_bytes"]), int64(last["fovr_wal_generation"]))
	fmt.Fprintf(&b, "go:     heap %s  goroutines %d  gc pause %s\n",
		topBytes(last[obs.MetricGoHeapBytes]),
		int64(last[obs.MetricGoGoroutines]),
		(time.Duration(last[obs.MetricGoGCPauseNs]) * time.Nanosecond).String())

	if s := st.Storage; s != nil {
		fmt.Fprintf(&b, "storage: %d segments (%s, %d entries)  memtable %d  %.1f window seals/s\n",
			s.Segments, topBytes(float64(s.SegmentBytes)), s.SegmentEntries,
			s.MemtableEntries, rate("fovr_store_compactions_total"))
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
	f.text = b.String()
	return f, nil
}

// endpointRows derives the RED table, one row per endpoint that has a
// latency histogram in the scrape, sorted by endpoint. gain is the
// scrape's gain over the window and perSec divides a gain by its length.
func endpointRows(last, gain obs.Scrape, perSec func(float64) float64) []endpointRow {
	const prefix, suffix = `fovr_http_request_seconds_count{endpoint="`, `"}`
	var rows []endpointRow
	for name := range last {
		ep, ok := strings.CutPrefix(name, prefix)
		if !ok || !strings.HasSuffix(ep, suffix) {
			continue
		}
		ep = strings.TrimSuffix(ep, suffix)
		hist := fmt.Sprintf("fovr_http_request_seconds{endpoint=%q}", ep)
		rows = append(rows, endpointRow{
			endpoint: ep,
			reqRate:  perSec(gain[name]),
			errRate:  perSec(topErrors(gain, ep)),
			p50:      gain.Quantile(hist, 0.5),
			p99:      gain.Quantile(hist, 0.99),
			requests: gain[name],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].endpoint < rows[j].endpoint })
	return rows
}

// topErrors sums the 4xx/5xx request counts of one endpoint.
func topErrors(gain obs.Scrape, endpoint string) float64 {
	prefix := fmt.Sprintf("fovr_http_requests_total{endpoint=%q,code=\"", endpoint)
	total := 0.0
	for name := range gain {
		code, ok := strings.CutPrefix(name, prefix)
		if !ok || !strings.HasSuffix(code, `"}`) {
			continue
		}
		code = strings.TrimSuffix(code, `"}`)
		if len(code) == 3 && (code[0] == '4' || code[0] == '5') {
			total += gain[name]
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
