package obs

import (
	"fmt"
	"time"
)

// Span times one stage of the pipeline. Obtain one from a SpanTimer's
// Start at the top of the stage and End it when the stage finishes; the
// duration is recorded into the registry's per-stage histogram family
//
//	fovr_stage_seconds{stage="<name>"}
//
// Stage names are dotted paths over the pipeline:
// "capture.push", "segment.split", "upload.post", "index.insert",
// "query.search", ... A Span is a value; passing it around is cheap.
type Span struct {
	h     *Histogram
	start time.Time
}

// SpanTimer is a pre-resolved stage timer: the per-stage histogram is
// looked up once, at construction, so starting a span on the hot path
// costs a clock read instead of a fmt.Sprintf plus a registry map
// lookup. Obtain one per stage at init time (package var or struct
// field) and call Start per invocation.
type SpanTimer struct {
	h *Histogram
}

// SpanTimer returns a reusable timer for the stage against this
// registry, resolving the histogram once.
func (r *Registry) SpanTimer(stage string) SpanTimer {
	return SpanTimer{h: r.Histogram(fmt.Sprintf("fovr_stage_seconds{stage=%q}", stage))}
}

// NewSpanTimer returns a reusable timer for the stage against the
// Default registry.
func NewSpanTimer(stage string) SpanTimer { return Default.SpanTimer(stage) }

// Start begins timing one invocation of the stage.
func (t SpanTimer) Start() Span { return Span{h: t.h, start: time.Now()} }

// End stops the span, records its duration, and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}
