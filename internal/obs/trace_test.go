package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fovr/internal/fov"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *QueryTrace
	tr.SetQuery("q")
	tr.AddIndexVisit(1, 2)
	tr.SetCandidates(3)
	tr.CountDrops(fov.MissOrientation, 1)
	tr.DropDetail(1, fov.MissOrientation, 90, 45, 10)
	tr.SetRanked(4)
	tr.SetReturned(5, 6)
	tr.StartStage("search").End()
	if d := tr.Finish(errors.New("boom")); d != 0 {
		t.Fatalf("nil Finish = %v, want 0", d)
	}
	if tr.Total() != 0 || tr.StageSummary() != "" {
		t.Fatal("nil trace reported non-zero state")
	}
}

func TestTraceAccumulation(t *testing.T) {
	tr := NewQueryTrace("q1")
	tr.SetQuery("center=(0,0)")
	tr.AddIndexVisit(5, 20)
	tr.AddIndexVisit(2, 10)
	tr.SetCandidates(30)
	tr.CountDrops(fov.MissOrientation, 1)
	tr.DropDetail(7, fov.MissOrientation, 120, 48, 15)
	tr.CountDrops(fov.MissDistance, 1)
	tr.DropDetail(8, fov.MissDistance, 0, 0, 500)
	tr.CountDrops(fov.MissOrientation, 1)
	tr.DropDetail(9, fov.MissOrientation, 99, 48, 12)
	tr.SetRanked(27)
	st := tr.StartStage("search")
	time.Sleep(time.Millisecond)
	st.End()
	tr.SetReturned(10, 17)
	total := tr.Finish(nil)

	if tr.NodesVisited != 7 || tr.LeafEntriesScanned != 30 {
		t.Fatalf("index counters = %d/%d, want 7/30", tr.NodesVisited, tr.LeafEntriesScanned)
	}
	if tr.DropsTotal != 3 || tr.DropCounts[fov.MissOrientation] != 2 || tr.DropCounts[fov.MissDistance] != 1 {
		t.Fatalf("drop accounting wrong: total=%d counts=%v", tr.DropsTotal, tr.DropCounts)
	}
	if len(tr.Drops) != 3 || tr.Drops[0].EntryID != 7 || tr.Drops[0].AngleDeg != 120 {
		t.Fatalf("drop detail wrong: %+v", tr.Drops)
	}
	if tr.Candidates != 30 || tr.Ranked != 27 || tr.Returned != 10 || tr.Truncated != 17 {
		t.Fatalf("pipeline counters wrong: %+v", tr)
	}
	if len(tr.Stages) != 1 || tr.Stages[0].Stage != "search" || tr.Stages[0].Nanos <= 0 {
		t.Fatalf("stage record wrong: %+v", tr.Stages)
	}
	if total <= 0 || tr.TotalNanos != total.Nanoseconds() || tr.Total() != total {
		t.Fatalf("total wrong: %v vs %d", total, tr.TotalNanos)
	}
	if tr.Err != "" {
		t.Fatalf("unexpected error %q", tr.Err)
	}
	if s := tr.StageSummary(); s == "" {
		t.Fatal("empty stage summary")
	}
	// Stage times must sum to no more than the measured total.
	var sum int64
	for _, st := range tr.Stages {
		sum += st.Nanos
	}
	if sum > tr.TotalNanos {
		t.Fatalf("stage sum %d exceeds total %d", sum, tr.TotalNanos)
	}
}

func TestTraceDropDetailBounded(t *testing.T) {
	tr := NewQueryTrace("q")
	for i := 0; i < MaxDropDetails+10; i++ {
		tr.CountDrops(fov.MissOrientation, 1)
		tr.DropDetail(uint64(i), fov.MissOrientation, 90, 45, 1)
	}
	if len(tr.Drops) != MaxDropDetails {
		t.Fatalf("drop detail grew to %d, want cap %d", len(tr.Drops), MaxDropDetails)
	}
	if tr.DropsTotal != MaxDropDetails+10 || tr.DropCounts[fov.MissOrientation] != MaxDropDetails+10 {
		t.Fatal("per-reason counts must keep growing past the detail cap")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("background context carried a trace")
	}
	tr := NewQueryTrace("q")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
	if got := WithTrace(context.Background(), nil); TraceFrom(got) != nil {
		t.Fatal("WithTrace(nil) attached something")
	}
}

func TestTraceStoreClassification(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 8, SlowThreshold: 10 * time.Millisecond, SampleRate: 2})

	errored := NewQueryTrace("err")
	errored.Finish(errors.New("bad"))
	if !s.Observe(errored) || errored.Class != "error" {
		t.Fatalf("errored trace not retained as error: %q", errored.Class)
	}

	slow := NewQueryTrace("slow")
	slow.Finish(nil)
	slow.TotalNanos = (20 * time.Millisecond).Nanoseconds()
	if !s.Observe(slow) || slow.Class != "slow" {
		t.Fatalf("slow trace not retained as slow: %q", slow.Class)
	}

	// Sampling is 1-in-2 over all observed traces; the two above already
	// consumed positions, so count which ordinary ones stick.
	kept := 0
	for i := 0; i < 10; i++ {
		tr := NewQueryTrace(fmt.Sprintf("ok%d", i))
		tr.Finish(nil)
		if s.Observe(tr) {
			if tr.Class != "sample" {
				t.Fatalf("ordinary trace classified %q", tr.Class)
			}
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("sampled %d of 10 at rate 2, want 5", kept)
	}
	st := s.Stats()
	if st.Observed != 12 || st.KeptError != 1 || st.KeptSlow != 1 || st.KeptSampled != 5 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.Kept() != 7 {
		t.Fatalf("Kept() = %d, want 7", st.Kept())
	}
}

func TestTraceStoreDefaultsAndDisable(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	if s.SlowThreshold() != 100*time.Millisecond || s.SampleRate() != 16 {
		t.Fatalf("defaults wrong: %v / %d", s.SlowThreshold(), s.SampleRate())
	}

	off := NewTraceStore(TraceStoreConfig{SlowThreshold: -1, SampleRate: -1})
	slow := NewQueryTrace("slow")
	slow.Finish(nil)
	slow.TotalNanos = time.Hour.Nanoseconds()
	if off.Observe(slow) {
		t.Fatal("slow retention disabled but trace kept")
	}
	for i := 0; i < 50; i++ {
		tr := NewQueryTrace("ok")
		tr.Finish(nil)
		if off.Observe(tr) {
			t.Fatal("sampling disabled but trace kept")
		}
	}
	errored := NewQueryTrace("err")
	errored.Finish(errors.New("bad"))
	if !off.Observe(errored) {
		t.Fatal("errored trace must always be kept")
	}
}

func TestTraceStoreSampledCannotEvictImportant(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 4, SlowThreshold: -1, SampleRate: 1})
	for i := 0; i < 3; i++ {
		tr := NewQueryTrace(fmt.Sprintf("err%d", i))
		tr.Finish(errors.New("bad"))
		s.Observe(tr)
	}
	// Flood with sampled ordinary traces far past capacity.
	for i := 0; i < 100; i++ {
		tr := NewQueryTrace(fmt.Sprintf("ok%d", i))
		tr.Finish(nil)
		s.Observe(tr)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("err%d", i)
		if s.Get(id) == nil {
			t.Fatalf("errored trace %s evicted by sampled traffic", id)
		}
	}
	if s.Len() != 3+4 {
		t.Fatalf("resident = %d, want 7 (3 errors + full sampled ring)", s.Len())
	}
}

func TestTraceStoreEvictionOrderAndListing(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 2, SlowThreshold: -1, SampleRate: -1})
	for i := 0; i < 5; i++ {
		tr := NewQueryTrace(fmt.Sprintf("err%d", i))
		tr.Finish(errors.New("bad"))
		s.Observe(tr)
	}
	if s.Get("err2") != nil {
		t.Fatal("old trace survived eviction")
	}
	got := s.Traces()
	if len(got) != 2 || got[0].ID != "err4" || got[1].ID != "err3" {
		ids := make([]string, len(got))
		for i, tr := range got {
			ids[i] = tr.ID
		}
		t.Fatalf("listing = %v, want [err4 err3] newest first", ids)
	}
}

func TestTraceStoreConcurrentObserve(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 64, SlowThreshold: -1, SampleRate: 4})
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr := NewQueryTrace(fmt.Sprintf("g%d-%d", g, i))
				if i%10 == 0 {
					tr.Finish(errors.New("bad"))
				} else {
					tr.Finish(nil)
				}
				s.Observe(tr)
				if i%50 == 0 {
					_ = s.Traces()
					_ = s.Get(tr.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Observed != goroutines*per {
		t.Fatalf("observed %d, want %d", st.Observed, goroutines*per)
	}
	wantErrors := int64(goroutines * per / 10)
	if st.KeptError != wantErrors {
		t.Fatalf("kept %d errors, want %d", st.KeptError, wantErrors)
	}
	wantSampled := int64((goroutines*per + 3) / 4)
	if got := st.KeptSampled + st.KeptError; got < wantErrors || st.KeptSampled == 0 {
		t.Fatalf("sampling under concurrency broke: %+v (≈%d expected sampled)", st, wantSampled)
	}
}
