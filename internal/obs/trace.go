package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"
)

// This file is the request-scoped half of the observability layer.
// Aggregate metrics (counters, histograms, spans) answer "how is the
// system doing?"; a QueryTrace answers "why was *this* query slow?" and
// "why did *this* FoV not match?" by recording, for one retrieval, the
// work each stage of the paper's Section V-B pipeline actually did:
// R-tree nodes visited, leaf entries scanned, candidates dropped by the
// orientation filter (with the drop reason and the offending angle),
// results ranked and truncated, and per-stage monotonic timings.
//
// Tracing is opt-in per request and threaded through context.Context:
// a nil *QueryTrace (the no-trace case) makes every method a no-op, so
// the traced code path costs zero allocations when tracing is off.

// MaxDropDetails bounds the per-trace list of per-candidate drop
// records; beyond it only the per-reason counts keep growing.
const MaxDropDetails = 32

// TraceDrop is one filtered-out candidate with the reason it was
// dropped (fov.MissDistance or fov.MissOrientation, the keys of
// DropCounts too): the camera's distance from the query center, the
// angle between its heading and the bearing to the center, and how far
// its sector misses the query disc, in metres.
type TraceDrop struct {
	EntryID        uint64  `json:"entryID"`
	Reason         string  `json:"reason"`
	AngleDeg       float64 `json:"angleDeg,omitempty"`
	MissMeters     float64 `json:"missMeters,omitempty"`
	DistanceMeters float64 `json:"distanceMeters,omitempty"`
}

// StageNanos is one timed pipeline stage of a trace.
type StageNanos struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// QueryTrace accumulates the structured events of one traced retrieval.
// All methods are safe on a nil receiver (they no-op), which is how the
// pipeline stays allocation-free when tracing is off. A trace belongs to
// a single request goroutine; it is not safe for concurrent mutation.
type QueryTrace struct {
	ID    string `json:"id"`
	Query string `json:"query,omitempty"`
	// StartUnixMillis is the wall-clock start; timings use a monotonic
	// clock internally.
	StartUnixMillis int64 `json:"startUnixMillis"`

	// Index traversal cost (step 1: the 3-D box search). Candidates is
	// the number of entries the walk handed to the filter — with a
	// top-N bound steering it, far fewer than the box holds.
	NodesVisited       int64 `json:"nodesVisited"`
	LeafEntriesScanned int64 `json:"leafEntriesScanned"`
	Candidates         int   `json:"candidates"`

	// Filter accounting (step 3: orientation coverage).
	DropCounts map[string]int `json:"dropCounts,omitempty"`
	DropsTotal int            `json:"dropsTotal"`
	Drops      []TraceDrop    `json:"drops,omitempty"`

	// Ranking (steps 2+4). Ranked counts the survivors the walk saw,
	// Truncated those of them beyond the top-N cut — at least that many
	// more covering cameras exist; the walk skipped the rest unseen.
	// BoundMeters is the final bound (the N-th result's distance) and is
	// absent when the top N never filled.
	Ranked      int     `json:"ranked"`
	Returned    int     `json:"returned"`
	Truncated   int     `json:"truncated"`
	BoundMeters float64 `json:"boundMeters,omitempty"`

	Stages     []StageNanos `json:"stages,omitempty"`
	TotalNanos int64        `json:"totalNanos"`
	Err        string       `json:"err,omitempty"`

	// Class is set by the TraceStore when the trace is retained:
	// "error", "slow", "sample", or "ingest". Seq is the store's
	// admission order.
	Class string `json:"class,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`

	// Origin is the trace ID of the request on another process that
	// caused this one — e.g. a follower's apply trace names the leader
	// upload that produced the WAL record. Propagated via the
	// X-Fovr-Trace header and the WAL record's trace field.
	Origin string `json:"origin,omitempty"`

	start time.Time
}

// NewQueryTrace starts a trace with the given id. The clock starts now.
func NewQueryTrace(id string) *QueryTrace {
	return &QueryTrace{
		ID:              id,
		StartUnixMillis: time.Now().UnixMilli(),
		start:           time.Now(),
	}
}

// SetQuery attaches a human-readable description of the query.
func (t *QueryTrace) SetQuery(desc string) {
	if t == nil {
		return
	}
	t.Query = desc
}

// AddIndexVisit records the traversal cost of one index search.
func (t *QueryTrace) AddIndexVisit(nodes, leafEntries int64) {
	if t == nil {
		return
	}
	t.NodesVisited += nodes
	t.LeafEntriesScanned += leafEntries
}

// SetCandidates records how many entries the index walk handed to the
// filter.
func (t *QueryTrace) SetCandidates(n int) {
	if t == nil {
		return
	}
	t.Candidates = n
}

// CountDrops adds n excluded candidates to the per-reason counts — the
// form a filter loop that tallies reasons itself reports once at its
// end. Zero is not recorded, so a reason only appears once it dropped
// something.
func (t *QueryTrace) CountDrops(reason string, n int) {
	if t == nil || n == 0 {
		return
	}
	if t.DropCounts == nil {
		t.DropCounts = make(map[string]int, 2)
	}
	t.DropCounts[reason] += n
	t.DropsTotal += n
}

// WantsDropDetail reports whether DropDetail would still keep a record:
// the trace exists and holds fewer than MaxDropDetails. Callers check it
// before computing the diagnosis a detail record carries.
func (t *QueryTrace) WantsDropDetail() bool {
	return t != nil && len(t.Drops) < MaxDropDetails
}

// DropDetail keeps the per-candidate record of one drop, for the first
// MaxDropDetails drops only. It does not count the drop.
func (t *QueryTrace) DropDetail(entryID uint64, reason string, angleDeg, missMeters, distanceMeters float64) {
	if !t.WantsDropDetail() {
		return
	}
	t.Drops = append(t.Drops, TraceDrop{
		EntryID:        entryID,
		Reason:         reason,
		AngleDeg:       angleDeg,
		MissMeters:     missMeters,
		DistanceMeters: distanceMeters,
	})
}

// SetRanked records how many candidates survived the filter.
func (t *QueryTrace) SetRanked(n int) {
	if t == nil {
		return
	}
	t.Ranked = n
}

// SetBound records the distance bound a filled top N ended the walk
// with: the N-th result's distance. The ranker calls it only then.
func (t *QueryTrace) SetBound(meters float64) {
	if t == nil || math.IsInf(meters, 1) {
		return
	}
	t.BoundMeters = meters
}

// SetReturned records the final result count and how many ranked
// candidates the top-N cut discarded.
func (t *QueryTrace) SetReturned(returned, truncated int) {
	if t == nil {
		return
	}
	t.Returned = returned
	t.Truncated = truncated
}

// TraceStage times one pipeline stage of a trace. The zero value (from
// a nil trace) no-ops on End.
type TraceStage struct {
	t     *QueryTrace
	name  string
	start time.Time
}

// StartStage begins timing a named stage.
func (t *QueryTrace) StartStage(name string) TraceStage {
	if t == nil {
		return TraceStage{}
	}
	return TraceStage{t: t, name: name, start: time.Now()}
}

// End records the stage duration into the trace.
func (s TraceStage) End() {
	if s.t == nil {
		return
	}
	s.t.Stages = append(s.t.Stages, StageNanos{Stage: s.name, Nanos: time.Since(s.start).Nanoseconds()})
}

// Finish stamps the total duration and the error (if any) and returns
// the total. Call exactly once, when the request completes.
func (t *QueryTrace) Finish(err error) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.start)
	t.TotalNanos = d.Nanoseconds()
	if err != nil {
		t.Err = err.Error()
	}
	return d
}

// Total returns the finished trace's total duration (zero before
// Finish).
func (t *QueryTrace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.TotalNanos)
}

// StageSummary renders the stage breakdown as a compact single line
// ("search=1.2ms filter=310µs rank=88µs") for log records.
func (t *QueryTrace) StageSummary() string {
	if t == nil || len(t.Stages) == 0 {
		return ""
	}
	var b strings.Builder
	for i, st := range t.Stages {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", st.Stage, time.Duration(st.Nanos).Round(time.Microsecond))
	}
	return b.String()
}

// traceKey carries the active *QueryTrace through context.Context.
type traceKey struct{}

// WithTrace returns a context carrying the trace. Passing nil returns
// ctx unchanged.
func WithTrace(ctx context.Context, t *QueryTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil when the request is
// untraced. The nil result is usable directly: every QueryTrace method
// no-ops on a nil receiver.
func TraceFrom(ctx context.Context) *QueryTrace {
	t, _ := ctx.Value(traceKey{}).(*QueryTrace)
	return t
}
