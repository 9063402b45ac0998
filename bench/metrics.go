package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported number. The names are the ledger later
// changes are judged against (bench/README.md); renaming one needs a
// new benchmark issue.
type metricDef struct {
	name   string
	unit   string
	higher bool // larger is better
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Zero on
	// per-layer metrics, which carry no bound.
	bound float64
	// gated marks the end-to-end metrics that every workload emits with
	// a non-zero value and that same-code runs hold within the bound on
	// all four; they are the end_to_end list of BENCHMARK.json. The
	// others occur on some workloads only or are too noisy to gate, and
	// are listed there under per_layer, where a zero is allowed.
	gated bool
}

// endToEnd are the twelve user-visible metrics. The bounds are what the
// same-code runs recorded in README.md were seen to hold on this kind
// of host, capped at the 25 % the benchmark contract allows.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, gated: true},
	{name: "query_ops_s", unit: "1/s", higher: true, bound: 0.25, gated: true},
	{name: "query_p50_ms", unit: "ms", bound: 0.25, gated: true},
	{name: "query_p99_ms", unit: "ms", bound: 0.25, gated: true},
	{name: "heap_bytes_per_entry", unit: "B", bound: 0.03, gated: true},
	{name: "ingest_entries_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "nearest_p50_ms", unit: "ms", bound: 0.25},
	{name: "upload_p50_ms", unit: "ms", bound: 0.20},
	{name: "upload_p99_ms", unit: "ms", bound: 0.25},
	{name: "disk_bytes_per_entry", unit: "B", bound: 0.05},
	{name: "recover_s", unit: "s", bound: 0.25},
	{name: "fail_share", unit: "ratio", bound: 0},
}

// perLayer are the single-layer metrics of the traced run, by module.
var perLayer = []metricDef{
	{name: "client.transport_self_us", unit: "us"},
	{name: "client.null_rtt_us", unit: "us"},
	{name: "client.max_ops_s", unit: "1/s", higher: true},
	{name: "client.open_late_p99_us", unit: "us"},
	{name: "server.query_handler_us", unit: "us"},
	{name: "server.query_http_self_us", unit: "us"},
	{name: "server.query_allocs_op", unit: "count"},
	{name: "server.query_bytes_op", unit: "B"},
	{name: "server.resp_bytes_op", unit: "B"},
	{name: "server.nearest_handler_us", unit: "us"},
	{name: "server.upload_handler_us", unit: "us"},
	{name: "server.upload_http_self_us", unit: "us"},
	{name: "server.upload_allocs_op", unit: "count"},
	{name: "server.contention_ratio", unit: "ratio"},
	{name: "query.rank_self_us", unit: "us"},
	{name: "query.candidates_op", unit: "count"},
	{name: "query.results_op", unit: "count"},
	{name: "query.useful_ratio", unit: "ratio", higher: true},
	{name: "index.search_us", unit: "us"},
	{name: "index.nearest_us", unit: "us"},
	{name: "index.insert_us_entry", unit: "us"},
	{name: "rtree.node_visits_op", unit: "count"},
	{name: "rtree.leaf_scanned_op", unit: "count"},
	{name: "rtree.height", unit: "count"},
	{name: "rtree.nodes", unit: "count"},
	{name: "store.append_us", unit: "us"},
	{name: "store.append_p99_us", unit: "us"},
	{name: "store.checkpoint_s", unit: "s"},
	{name: "store.compact_s", unit: "s"},
	{name: "store.recover_entries_s", unit: "1/s", higher: true},
	{name: "store.segments", unit: "count"},
	{name: "store.compactions", unit: "count"},
	{name: "store.wal_bytes", unit: "B"},
	{name: "store.checkpoint_bytes", unit: "B"},
	{name: "store.segment_bytes", unit: "B"},
	{name: "store.upload_stall_max_ms", unit: "ms"},
	{name: "wire.encode_us", unit: "us"},
	{name: "wire.decode_us", unit: "us"},
	{name: "wire.bytes_per_rep", unit: "B"},
	{name: "cluster.router_handler_us", unit: "us"},
	{name: "cluster.router_self_us", unit: "us"},
	{name: "cluster.partition_handler_us", unit: "us"},
	{name: "cluster.fanout_op", unit: "count"},
	{name: "cluster.slowest_partition_share", unit: "ratio"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "attribution_gap_pct", unit: "%"},
}

// gatedNames and layerNames are the two metric sets of the driver
// contract: -trace 0 prints the first, -trace 1 the second.
func gatedNames() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

func layerNames() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if !d.gated {
			out = append(out, d)
		}
	}
	return append(out, perLayer...)
}

// reading is one measured value with the number of samples behind it.
type reading struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one run of one workload measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]reading `json:"metrics"`
	Findings  []string           `json:"findings,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, Metrics: map[string]reading{}}
}

// unitOf maps every defined metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric; the unit comes from the definitions above so a
// name can never be printed with two units.
func (r *result) set(name string, v float64, samples int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not defined in metrics.go")
	}
	r.Metrics[name] = reading{Value: v, Unit: unit, Samples: samples}
}

func (r *result) get(name string) float64 { return r.Metrics[name].Value }

// driverLine is the one-line JSON object the driver contract asks for:
// exactly the gated end-to-end metrics untraced, exactly the per-layer
// set traced (a metric that does not occur on the workload reads 0).
func (r *result) driverLine() ([]byte, error) {
	defs := gatedNames()
	if r.Traced {
		defs = layerNames()
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]out, len(defs))
	for _, d := range defs {
		v := r.Metrics[d.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		if !r.Traced && v == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured on %s", d.name, r.Workload)
		}
		ms[d.name] = out{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// print writes every metric of the run by name with its unit and
// sample count, end-to-end first.
func (r *result) print(w io.Writer) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s) attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	order := map[string]int{}
	for i, d := range endToEnd {
		order[d.name] = i
	}
	for i, d := range perLayer {
		order[d.name] = len(endToEnd) + i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		m := r.Metrics[n]
		if m.Samples > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
}
