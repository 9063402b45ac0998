package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// DefBuckets are the histogram bucket upper bounds, in seconds. They
// span 100 ns (the per-frame segmentation cost of Algorithm 1) to 10 s
// (a pathological end-to-end request), 1-2.5-5 per decade.
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
// style over DefBuckets: observation counts per upper bound, plus total
// sum and count. All operations are lock-free.
type Histogram struct {
	counts []atomic.Int64 // one per bound, plus one overflow slot
	count  atomic.Int64
	sumNs  atomic.Int64 // sum in nanoseconds-of-a-second: sum*1e9, see Sum
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(DefBuckets)+1)}
}

// Observe records one observation (seconds, for latency histograms —
// but any unit works as long as the buckets match).
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(DefBuckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(v * 1e9))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values. Resolution is 1e-9 per
// observation (a nanosecond for latency histograms).
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1); see
// quantile.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(q, float64(h.count.Load()), func(i int) float64 { return float64(h.counts[i].Load()) })
}

// quantile estimates the q-quantile of total observations over
// DefBuckets, n(i) being bucket i's own count, by linear interpolation
// within the bucket containing it. Observations beyond the last bound
// report the last bound. Returns 0 when empty. The live Histogram and a
// scraped one (Scrape.Quantile) both estimate through here.
func quantile(q, total float64, n func(i int) float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * total
	cum := 0.0
	for i, hi := range DefBuckets {
		c := n(i)
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = DefBuckets[i-1]
			}
			frac := min(max((rank-cum)/c, 0), 1)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return DefBuckets[len(DefBuckets)-1]
}

// bucketLabel is the le label value of bucket i: the shortest
// representation of its bound, which parses back to the same float.
func bucketLabel(i int) string { return strconv.FormatFloat(DefBuckets[i], 'g', -1, 64) }

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
	for i := range DefBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", withLE(bucketLabel(i)), cum)
	}
	cum += h.counts[len(DefBuckets)].Load()
	fmt.Fprintf(b, "%s %d\n", withLE("+Inf"), cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", base, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", base, suffix, h.count.Load())
}
