// Package obs is the repository's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms), Prometheus text-format exposition, and a lightweight
// span/stage-timer API used to time the capture → segment → upload →
// index → query pipeline.
//
// The paper's whole argument is quantitative — O(1) segmentation cost per
// frame (Algorithm 1), descriptor-sized upload traffic (Section VI-D),
// and sub-100 ms query latency over the 3-D R-tree (Section V) — so every
// hot path in the system records into a Registry and the server exposes
// the result at GET /metrics.
//
// Metric names follow the Prometheus convention and may carry a constant
// label set inline:
//
//	reg.Counter(`fovr_http_requests_total{endpoint="/upload",code="200"}`).Inc()
//	reg.Histogram("fovr_segment_frame_seconds").Observe(d.Seconds())
//
// Metrics are created on first use and live for the life of the registry.
// Everything is safe for concurrent use.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry. Packages that instrument
// themselves unconditionally (segment, client) record here; the server
// exposes it at /metrics unless configured with its own registry.
var Default = NewRegistry()

// metric is anything the registry can expose.
type metric interface {
	// writeProm appends exposition lines for the metric. name is the full
	// registered name (base plus inline labels).
	writeProm(b *strings.Builder, name string)
	// promType is the TYPE keyword for the metric's family.
	promType() string
}

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
	created time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric), created: time.Now()}
}

// UptimeSeconds returns the seconds since the registry was created — the
// process uptime when using Default.
func (r *Registry) UptimeSeconds() float64 { return time.Since(r.created).Seconds() }

// get returns the metric of kind M under name, creating it with create
// on miss. It panics when the name is malformed or already registered as
// another kind — both are programming errors.
func get[M metric](r *Registry, name string, create func() M) M {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		if err := checkName(name); err != nil {
			panic(err)
		}
		r.mu.Lock()
		if m, ok = r.metrics[name]; !ok {
			m = create()
			r.metrics[name] = m
		}
		r.mu.Unlock()
	}
	t, ok := m.(M)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %s", name, m.promType()))
	}
	return t
}

// Counter returns the monotonic counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name string) *Counter {
	return get(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the settable gauge with the given name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	return get(r, name, func() *Gauge { return &Gauge{} })
}

// GaugeFunc registers (or replaces) a gauge whose value is produced by f
// at exposition time — the shape used for live readings like index size.
// Replacement keeps re-created servers sharing a registry from
// colliding: the newest owner of the name wins.
func (r *Registry) GaugeFunc(name string, f func() float64) { r.put(name, funcMetric{"gauge", f}) }

// CounterFunc registers (or replaces) a counter whose value is produced
// by f at exposition time. The value should be monotonic over the life of
// the producer; scrapers treat a decrease as a reset.
func (r *Registry) CounterFunc(name string, f func() float64) { r.put(name, funcMetric{"counter", f}) }

// put registers m under name, replacing any metric there.
func (r *Registry) put(name string, m metric) {
	if err := checkName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = m
}

// Histogram returns the fixed-bucket histogram with the given name,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return get(r, name, newHistogram) }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) promType() string { return "counter" }
func (c *Counter) writeProm(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %d\n", name, c.v.Load())
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; fine for low-rate gauges).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) promType() string { return "gauge" }
func (g *Gauge) writeProm(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %s\n", name, formatFloat(g.Value()))
}

// funcMetric is a gauge or a counter read from f at exposition time.
type funcMetric struct {
	kind string
	f    func() float64
}

func (m funcMetric) promType() string { return m.kind }
func (m funcMetric) writeProm(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %s\n", name, formatFloat(m.f()))
}

// formatFloat renders floats the way Prometheus expects: shortest exact
// representation, integers without a trailing ".0".
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// splitName separates a full metric name into its base name and the
// inline label block (excluding braces); labels is "" when absent.
func splitName(full string) (base, labels string) {
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return full, ""
	}
	return full[:i], strings.TrimSuffix(full[i+1:], "}")
}

// checkName validates a metric name: a Prometheus-legal base identifier,
// optionally followed by {k="v",...} with balanced braces and quoted
// values.
func checkName(full string) error {
	base, labels := splitName(full)
	if base == "" {
		return fmt.Errorf("obs: empty metric name %q", full)
	}
	for i, c := range base {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", full)
		}
	}
	if strings.ContainsRune(base, '{') || strings.Count(full, "{") > 1 {
		return fmt.Errorf("obs: invalid metric name %q", full)
	}
	if i := strings.IndexByte(full, '{'); i >= 0 && !strings.HasSuffix(full, "}") {
		return fmt.Errorf("obs: unterminated label block in %q", full)
	}
	if labels != "" {
		for _, pair := range splitLabels(labels) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return fmt.Errorf("obs: invalid label %q in %q", pair, full)
			}
		}
	}
	return nil
}

// splitLabels splits a label block on commas that sit outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name with a
// single # TYPE line each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, r.Prometheus())
	return err
}

func (r *Registry) writeTo(b *strings.Builder) {
	r.mu.RLock()
	metrics := maps.Clone(r.metrics)
	r.mu.RUnlock()
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}

	// Sort by (family, full name) so label variants of one family group
	// together under a single TYPE header.
	sort.Slice(names, func(i, j int) bool {
		bi, _ := splitName(names[i])
		bj, _ := splitName(names[j])
		if bi != bj {
			return bi < bj
		}
		return names[i] < names[j]
	})
	lastFamily := ""
	for _, name := range names {
		m := metrics[name]
		family, _ := splitName(name)
		if family != lastFamily {
			fmt.Fprintf(b, "# TYPE %s %s\n", family, m.promType())
			lastFamily = family
		}
		m.writeProm(b, name)
	}
}

// ServeHTTP serves the exposition: GET /metrics on a server, on a router
// and on fovserver's debug listener.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// Prometheus returns the full exposition as a string.
func (r *Registry) Prometheus() string {
	var b strings.Builder
	r.writeTo(&b)
	return b.String()
}

// Scrape is one parsed exposition: each sample's value under its series
// name as written, inline labels included. It is what a consumer of GET
// /metrics (fovctl top) reads the registry through.
type Scrape map[string]float64

// ParseScrape reads the text format WritePrometheus writes: comment
// lines are skipped, and every other line is a series name, a space
// and a value.
func ParseScrape(text string) (Scrape, error) {
	s := Scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: sample line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// Since returns what each counter and histogram series of s gained
// after prev was scraped; a series that went down (its process
// restarted) counts from zero. Gauges in the result mean nothing.
func (s Scrape) Since(prev Scrape) Scrape {
	d := make(Scrape, len(s))
	for name, v := range s {
		if p := prev[name]; v >= p {
			v -= p
		}
		d[name] = v
	}
	return d
}

// Quantile is Histogram.Quantile for the histogram registered as name
// (base name plus inline labels), estimated from its _bucket samples.
func (s Scrape) Quantile(name string, q float64) float64 {
	base, labels := splitName(name)
	prefix := base + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	cum := func(le string) float64 { return s[prefix+`le="`+le+`"}`] }
	return quantile(q, cum("+Inf"), func(i int) float64 {
		n := cum(bucketLabel(i))
		if i > 0 {
			n -= cum(bucketLabel(i - 1))
		}
		return n
	})
}

// Discard is the logger of a component configured with none. Its handler
// is enabled at no level, so a record is dropped before it is formatted.
var Discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// Package-level conveniences on the Default registry.

// GetOrCreateCounter returns Default.Counter(name).
func GetOrCreateCounter(name string) *Counter { return Default.Counter(name) }

// GetOrCreateHistogram returns Default.Histogram(name).
func GetOrCreateHistogram(name string) *Histogram { return Default.Histogram(name) }
