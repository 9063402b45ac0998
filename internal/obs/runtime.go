// Go runtime health exported through the registry. The ops plane needs
// to correlate service symptoms (slow queries, growing WAL) with process
// symptoms (heap growth, goroutine leaks, GC stalls), so the runtime's
// own counters are exposed under the same registry — and therefore on
// the same /metrics page — as the service metrics. LabelWorker names long-lived worker goroutines in the
// runtime's own profiles and goroutine dumps.
package obs

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// LabelWorker runs fn with a pprof "worker" label naming the goroutine,
// so goroutine dumps and CPU profiles attribute long-lived background
// loops (replica follower, store checkpoint/fsync) by role. Blocks
// until fn returns; launch with `go LabelWorker(...)`.
func LabelWorker(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("worker", name), func(context.Context) { fn() })
}

// Runtime metric names registered by RegisterRuntimeMetrics.
const (
	// MetricGoHeapBytes is the live heap: bytes occupied by reachable
	// and not-yet-swept objects.
	MetricGoHeapBytes = "fovr_go_heap_bytes"
	// MetricGoGoroutines is the live goroutine count.
	MetricGoGoroutines = "fovr_go_goroutines"
	// MetricGoGCPauseNs is the median stop-the-world GC pause since
	// process start, in nanoseconds.
	MetricGoGCPauseNs = "fovr_go_gc_pause_ns"
)

// runtimeSamples are the runtime/metrics samples behind the gauges. One
// metrics.Read call refreshes all of them; the result is cached briefly
// so a scrape reading all three gauges pays for a single Read.
type runtimeReader struct {
	mu      sync.Mutex
	samples []metrics.Sample
	read    time.Time
}

func (rr *runtimeReader) refresh() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if time.Since(rr.read) < 100*time.Millisecond {
		return
	}
	metrics.Read(rr.samples)
	rr.read = time.Now()
}

func (rr *runtimeReader) value(i int) float64 {
	rr.refresh()
	rr.mu.Lock()
	defer rr.mu.Unlock()
	s := rr.samples[i]
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindFloat64Histogram:
		return histMedian(s.Value.Float64Histogram())
	}
	return 0
}

// histMedian estimates the median of a runtime/metrics histogram by
// locating the bucket holding the middle observation.
func histMedian(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := (total + 1) / 2
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Buckets has len(Counts)+1 boundaries; bucket i spans
			// Buckets[i]..Buckets[i+1]. Use the upper bound, clamped away
			// from the +Inf sentinel of the overflow bucket.
			hi := h.Buckets[i+1]
			if hi > 1e18 || hi != hi { // +Inf or NaN sentinel
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// RegisterRuntimeMetrics installs runtime/metrics-backed gauges on the
// registry: fovr_go_heap_bytes, fovr_go_goroutines, and
// fovr_go_gc_pause_ns (median GC pause since process start). The values
// are read at scrape time; registering twice re-points the gauges, which
// is harmless.
func RegisterRuntimeMetrics(r *Registry) {
	rr := &runtimeReader{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/pauses:seconds"},
	}}
	r.GaugeFunc(MetricGoHeapBytes, func() float64 { return rr.value(0) })
	r.GaugeFunc(MetricGoGoroutines, func() float64 { return rr.value(1) })
	r.GaugeFunc(MetricGoGCPauseNs, func() float64 { return rr.value(2) * 1e9 })
}
