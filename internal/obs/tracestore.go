package obs

import (
	"sort"
	"sync"
	"time"
)

// TraceStore is a bounded in-memory tail-sampling store for finished
// query traces. Tail sampling decides *after* a query completes whether
// its trace is worth keeping, so the store can guarantee the
// interesting ones survive:
//
//   - every trace that ended in an error,
//   - every trace slower than the configured threshold,
//   - plus a 1-in-N sample of ordinary traces, so the store always
//     holds a picture of normal behaviour to compare against.
//
// Errored and slow traces live in their own ring, so a burst of sampled
// ordinary traffic can never evict them (and vice versa). Within a
// ring, oldest traces are evicted first once the capacity is reached.
// The store is safe for concurrent use.
type TraceStore struct {
	capacity int
	slow     time.Duration
	sample   int

	mu        sync.Mutex
	seq       uint64
	seen      uint64
	important traceRing // errored + slow
	sampled   traceRing // 1-in-N of the rest
	ingest    traceRing // unconditionally kept via Keep (cross-process)
	stats     TraceStoreStats
}

// TraceStoreConfig tunes a TraceStore.
type TraceStoreConfig struct {
	// Capacity bounds each retention ring (one for errored+slow, one
	// for sampled ordinary traces). Zero selects 256.
	Capacity int
	// SlowThreshold marks traces at or above this total duration as
	// slow. Zero selects 100ms; negative disables slow retention.
	SlowThreshold time.Duration
	// SampleRate keeps 1 in N ordinary traces. Zero selects 16;
	// negative disables sampling (only errored and slow traces are
	// kept).
	SampleRate int
}

// TraceStoreStats counts the store's admission decisions.
type TraceStoreStats struct {
	Observed    int64 `json:"observed"`
	KeptError   int64 `json:"keptError"`
	KeptSlow    int64 `json:"keptSlow"`
	KeptSampled int64 `json:"keptSampled"`
	KeptIngest  int64 `json:"keptIngest"`
}

// Kept returns the total number of retained traces over the store's
// lifetime (retained, not necessarily still resident).
func (s TraceStoreStats) Kept() int64 {
	return s.KeptError + s.KeptSlow + s.KeptSampled + s.KeptIngest
}

// NewTraceStore builds a store from the config.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.Capacity == 0 {
		cfg.Capacity = 256
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 16
	}
	return &TraceStore{
		capacity:  cfg.Capacity,
		slow:      cfg.SlowThreshold,
		sample:    cfg.SampleRate,
		important: traceRing{buf: make([]*QueryTrace, cfg.Capacity)},
		sampled:   traceRing{buf: make([]*QueryTrace, cfg.Capacity)},
		ingest:    traceRing{buf: make([]*QueryTrace, cfg.Capacity)},
	}
}

// SlowThreshold returns the effective slow-query threshold (negative
// means disabled).
func (s *TraceStore) SlowThreshold() time.Duration { return s.slow }

// SampleRate returns the effective 1-in-N sampling rate (negative means
// disabled).
func (s *TraceStore) SampleRate() int { return s.sample }

// Observe classifies a finished trace and retains it when it qualifies,
// reporting whether it was kept. The trace must not be mutated after
// being observed.
func (s *TraceStore) Observe(t *QueryTrace) bool { return s.ObserveLabeled(t, nil) }

// ObserveLabeled is Observe for a trace whose Query description has not
// been rendered yet: label is called — outside the store's lock and
// before the trace becomes visible to readers — only if the trace is
// retained and has no description.
func (s *TraceStore) ObserveLabeled(t *QueryTrace, label func() string) bool {
	if s == nil || t == nil {
		return false
	}
	s.mu.Lock()
	s.seen++
	s.stats.Observed++
	switch {
	case t.Err != "":
		t.Class = "error"
		s.stats.KeptError++
	case s.slow > 0 && t.Total() >= s.slow:
		t.Class = "slow"
		s.stats.KeptSlow++
	case s.sample > 0 && (s.seen-1)%uint64(s.sample) == 0:
		t.Class = "sample"
		s.stats.KeptSampled++
	default:
		s.mu.Unlock()
		return false
	}
	s.seq++
	t.Seq = s.seq
	s.mu.Unlock()

	if t.Query == "" && label != nil {
		t.Query = label()
	}
	s.mu.Lock()
	if t.Class == "sample" {
		s.sampled.add(t)
	} else {
		s.important.add(t)
	}
	s.mu.Unlock()
	return true
}

// Keep retains a trace unconditionally in the ingest ring, bypassing
// tail-sampling classification. It is how cross-process traces — a
// follower's apply of a leader's upload — are guaranteed to survive, so
// the propagated Origin ID can be looked up later. The trace must not
// be mutated after being kept.
func (s *TraceStore) Keep(t *QueryTrace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Class == "" {
		t.Class = "ingest"
	}
	s.stats.KeptIngest++
	s.seq++
	t.Seq = s.seq
	s.ingest.add(t)
}

// Traces returns the retained traces, newest first.
func (s *TraceStore) Traces() []*QueryTrace {
	s.mu.Lock()
	out := append(append(s.important.all(), s.sampled.all()...), s.ingest.all()...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Get returns the retained trace with the given id, or nil. A trace is
// found by its own ID or — so a leader-side ID resolves on a follower —
// by its propagated Origin ID.
func (s *TraceStore) Get(id string) *QueryTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.important.find(id); t != nil {
		return t
	}
	if t := s.sampled.find(id); t != nil {
		return t
	}
	return s.ingest.find(id)
}

// Stats returns the store's admission counters.
func (s *TraceStore) Stats() TraceStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of currently resident traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.important.n + s.sampled.n + s.ingest.n
}

// traceRing is a fixed-capacity ring buffer of traces; the newest write
// overwrites the oldest once full. Callers hold the store lock.
type traceRing struct {
	buf  []*QueryTrace
	next int
	n    int
}

func (r *traceRing) add(t *QueryTrace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *traceRing) all() []*QueryTrace {
	out := make([]*QueryTrace, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)])
	}
	return out
}

func (r *traceRing) find(id string) *QueryTrace {
	for i := 0; i < r.n; i++ {
		if t := r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]; t.ID == id || (t.Origin != "" && t.Origin == id) {
			return t
		}
	}
	return nil
}
