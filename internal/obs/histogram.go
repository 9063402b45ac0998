package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds.
// They span 100 ns (the per-frame segmentation cost of Algorithm 1) to
// 10 s (a pathological end-to-end request), 1-2.5-5 per decade.
var DefBuckets = []float64{
	1e-7, 2.5e-7, 5e-7,
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: observation counts per upper bound, plus total sum and count.
// All operations are lock-free.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64 // one per bound, plus one overflow slot
	count  atomic.Int64
	sumNs  atomic.Int64 // sum in nanoseconds-of-a-second: sum*1e9, see Sum
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram buckets not sorted")
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation (seconds, for latency histograms —
// but any unit works as long as the buckets match).
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(v * 1e9))
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(seconds float64) { h.Observe(seconds) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values. Resolution is 1e-9 per
// observation (a nanosecond for latency histograms).
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket containing it. Observations beyond the
// last bound report the last bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) promType() string { return "histogram" }

func (h *Histogram) writeProm(b *strings.Builder, name string) {
	base, labels := splitName(name)
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le="%s"}`, base, le)
		}
		return fmt.Sprintf(`%s_bucket{%s,le="%s"}`, base, labels, le)
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", withLE(formatBound(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", withLE("+Inf"), cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", base, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", base, suffix, h.count.Load())
}

func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}
