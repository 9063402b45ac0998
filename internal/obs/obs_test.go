package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fovr_test_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if c2 := r.Counter("fovr_test_total"); c2 != c {
		t.Fatal("second lookup returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("fovr_test_gauge")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	r.GaugeFunc("fovr_live_gauge", func() float64 { return 7 })
	if !strings.Contains(r.Prometheus(), "fovr_live_gauge 7\n") {
		t.Fatalf("gauge func missing from exposition:\n%s", r.Prometheus())
	}
	// Re-registration replaces (servers sharing Default re-register).
	r.GaugeFunc("fovr_live_gauge", func() float64 { return 8 })
	if !strings.Contains(r.Prometheus(), "fovr_live_gauge 8\n") {
		t.Fatalf("gauge func not replaced:\n%s", r.Prometheus())
	}
}

func TestNameValidation(t *testing.T) {
	r := NewRegistry()
	good := []string{
		"fovr_requests_total",
		`fovr_requests_total{endpoint="/upload"}`,
		`fovr_requests_total{endpoint="/upload",code="200"}`,
	}
	for _, name := range good {
		r.Counter(name) // must not panic
	}
	bad := []string{
		"",
		"1starts_with_digit",
		"has space",
		`unterminated{label="x"`,
		`bare{label=value}`,
		`empty{="v"}`,
	}
	for _, name := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name)
		}()
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("fovr_thing")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("fovr_thing")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fovr_test_seconds")
	for i := 0; i < 100; i++ {
		h.Observe(0.001) // all in the 1ms bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got, want := h.Sum(), 0.1; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
	q := h.Quantile(0.5)
	if q < 0.0005 || q > 0.001 {
		t.Fatalf("p50 = %v, want within (0.0005, 0.001]", q)
	}
	if got := h.Quantile(0); got < 0 {
		t.Fatalf("q0 = %v", got)
	}
	empty := r.Histogram("fovr_empty_seconds")
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramBucketsExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fovr_sizes_seconds")
	h.Observe(5e-7)
	h.Observe(5e-5)
	h.Observe(50) // overflow bucket
	out := r.Prometheus()
	for _, want := range []string{
		`fovr_sizes_seconds_bucket{le="5e-07"} 1`,
		`fovr_sizes_seconds_bucket{le="5e-05"} 2`,
		`fovr_sizes_seconds_bucket{le="10"} 2`,
		`fovr_sizes_seconds_bucket{le="+Inf"} 3`,
		`fovr_sizes_seconds_count 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestScrapeRoundTrip: every series the exposition writes parses back
// to its value, and a histogram's quantiles estimated from the parsed
// buckets are the live histogram's own.
func TestScrapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(`fovr_http_requests_total{endpoint="/query",code="200"}`).Add(5)
	r.Counter("fovr_plain_total").Add(1 << 40)
	r.Gauge("fovr_ratio").Set(0.125)
	r.Gauge(`fovr_negative{kind="x y"}`).Set(-3.5e-9)
	r.GaugeFunc("fovr_func_gauge", func() float64 { return 7 })
	r.CounterFunc("fovr_func_total", func() float64 { return 1e17 })
	h := r.Histogram(`fovr_http_request_seconds{endpoint="/query"}`)
	bare := r.Histogram("fovr_bare_seconds")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%97) * 3.7e-5)
		bare.Observe(float64(i) * 1e-3)
	}
	h.Observe(42) // overflow

	text := r.Prometheus()
	s, err := ParseScrape(text)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		i := strings.LastIndexByte(line, ' ')
		want, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if got, ok := s[line[:i]]; !ok || got != want {
			t.Errorf("%s: parsed %v (present %v), written %v", line[:i], got, ok, want)
		}
	}
	if len(s) != lines {
		t.Errorf("parsed %d series from %d sample lines", len(s), lines)
	}
	for name, v := range map[string]float64{
		`fovr_http_requests_total{endpoint="/query",code="200"}`: 5,
		"fovr_plain_total":          1 << 40,
		"fovr_ratio":                0.125,
		`fovr_negative{kind="x y"}`: -3.5e-9,
		"fovr_func_gauge":           7,
		"fovr_func_total":           1e17,
		`fovr_http_request_seconds_count{endpoint="/query"}`: 1001,
	} {
		if s[name] != v {
			t.Errorf("%s = %v, want %v", name, s[name], v)
		}
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		for name, live := range map[string]*Histogram{`fovr_http_request_seconds{endpoint="/query"}`: h, "fovr_bare_seconds": bare} {
			if got, want := s.Quantile(name, q), live.Quantile(q); got != want {
				t.Errorf("%s q%v: scraped %v, live %v", name, q, got, want)
			}
		}
	}

	// Since is the gain between two scrapes; the quantile of the gain
	// sees only the later observations.
	for i := 0; i < 10; i++ {
		h.Observe(2)
	}
	r.Counter("fovr_plain_total").Inc()
	later, err := ParseScrape(r.Prometheus())
	if err != nil {
		t.Fatal(err)
	}
	d := later.Since(s)
	if got := d["fovr_plain_total"]; got != 1 {
		t.Errorf("counter gained %v, want 1", got)
	}
	if got := d[`fovr_http_request_seconds_count{endpoint="/query"}`]; got != 10 {
		t.Errorf("histogram count gained %v, want 10", got)
	}
	if got := d.Quantile(`fovr_http_request_seconds{endpoint="/query"}`, 0.5); got <= 1 || got > 2.5 {
		t.Errorf("p50 of the gain = %v, want within (1, 2.5]", got)
	}
	if got := s.Since(later)["fovr_plain_total"]; got != 1<<40 {
		t.Errorf("a counter that went down gained %v, want its value %v", got, 1<<40)
	}
	if _, err := ParseScrape("fovr_x notanumber\n"); err == nil {
		t.Error("malformed value parsed")
	}
}

// promLine matches any legal sample or comment line of the text format.
var promLine = regexp.MustCompile(
	`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|` +
		`[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|\+Inf|NaN))$`)

func TestPrometheusExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter(`fovr_http_requests_total{endpoint="/upload",code="200"}`).Add(3)
	r.Counter(`fovr_http_requests_total{endpoint="/query",code="200"}`).Add(5)
	r.Gauge("fovr_index_entries").Set(12)
	h := r.Histogram(`fovr_http_request_seconds{endpoint="/query"}`)
	h.Observe(0.004)
	h.Observe(0.02)
	r.Histogram(`fovr_labeled_seconds{stage="query.rank"}`).Observe(0.001)

	out := r.Prometheus()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	typeSeen := map[string]bool{}
	for _, line := range lines {
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if typeSeen[fam] {
				t.Errorf("duplicate TYPE line for %s", fam)
			}
			typeSeen[fam] = true
		}
	}
	for _, fam := range []string{
		"fovr_http_requests_total", "fovr_index_entries",
		"fovr_http_request_seconds", "fovr_labeled_seconds",
	} {
		if !typeSeen[fam] {
			t.Errorf("missing TYPE line for %s:\n%s", fam, out)
		}
	}
	if !strings.Contains(out, `fovr_labeled_seconds_count{stage="query.rank"} 1`) {
		t.Errorf("labeled histogram missing from the exposition:\n%s", out)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("fovr_conc_total").Inc()
				r.Gauge("fovr_conc_gauge").Add(1)
				r.Histogram("fovr_conc_seconds").Observe(float64(i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("fovr_conc_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("fovr_conc_gauge").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("fovr_conc_seconds").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestUptime(t *testing.T) {
	r := NewRegistry()
	if r.UptimeSeconds() < 0 {
		t.Fatal("negative uptime")
	}
}

func TestLabelWorkerRunsFn(t *testing.T) {
	ran := false
	LabelWorker("test.worker", func() { ran = true })
	if !ran {
		t.Fatal("LabelWorker did not run fn")
	}
}
