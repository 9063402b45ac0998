package query

import (
	"context"
	"math"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
)

// TestTraceDropAccounting is the observable half of the improper-
// direction exclusion: a camera near enough to cover the query but
// facing away must show up in the trace as an orientation drop — with
// the offending angle and how far its sector misses the query disc —
// and never in the results.
func TestTraceDropAccounting(t *testing.T) {
	pitchSide := geo.Offset(center, 0, 50)
	facingQuery := entry(1, pitchSide, 180, 0, 1000)
	facingAway := entry(2, pitchSide, 0, 0, 1000)
	idx := newIndex(t, facingQuery, facingAway)
	q := Query{StartMillis: 0, EndMillis: 1000, Center: center, RadiusMeters: 20}

	tr := obs.NewQueryTrace("q1")
	ctx := obs.WithTrace(context.Background(), tr)
	results, err := SearchCtx(ctx, idx, q, Options{Camera: cam, MaxResults: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish(nil)

	if len(results) != 1 || results[0].Entry.ID != 1 {
		t.Fatalf("results = %+v, want only the covering segment 1", results)
	}
	for _, r := range results {
		if r.Entry.ID == 2 {
			t.Fatal("non-covering segment 2 leaked into the results")
		}
	}
	if tr.Candidates != 2 {
		t.Fatalf("candidates = %d, want 2 (both are within reach)", tr.Candidates)
	}
	if tr.DropCounts[fov.MissOrientation] != 1 || tr.DropsTotal != 1 {
		t.Fatalf("drop accounting = %v (total %d), want one orientation drop", tr.DropCounts, tr.DropsTotal)
	}
	if len(tr.Drops) != 1 {
		t.Fatalf("drop detail missing: %+v", tr.Drops)
	}
	d := tr.Drops[0]
	if d.EntryID != 2 || d.Reason != fov.MissOrientation {
		t.Fatalf("drop = %+v, want segment 2 dropped for orientation", d)
	}
	// Facing due north with the query due south: the offending angle is
	// 180°, and the sector's nearest point is the camera itself, 50 m
	// from the center, so it misses the 20 m disc by 30 m.
	if d.AngleDeg < 170 || d.AngleDeg > 180 || math.Abs(d.MissMeters-30) > 0.01 || math.Abs(d.DistanceMeters-50) > 0.01 {
		t.Fatalf("drop %+v: want an angle near 180°, 50 m away, missing by 30 m", d)
	}
	if tr.Ranked != 1 || tr.Returned != 1 || tr.Truncated != 0 {
		t.Fatalf("rank accounting wrong: ranked=%d returned=%d truncated=%d", tr.Ranked, tr.Returned, tr.Truncated)
	}
}

// TestTraceCountersAndStages checks the index-traversal counters and
// that the per-stage clocks are present, named after Section V-B, and
// sum to no more than the finished total.
func TestTraceCountersAndStages(t *testing.T) {
	entries := make([]index.Entry, 0, 64)
	for i := 0; i < 64; i++ {
		p := geo.Offset(center, float64(i*37%360), float64(i%9)*30)
		entries = append(entries, entry(uint64(i+1), p, float64(i*53%360), 0, 1000))
	}
	idx := newIndex(t, entries...)
	q := Query{StartMillis: 0, EndMillis: 1000, Center: center, RadiusMeters: 30}

	tr := obs.NewQueryTrace("q2")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := SearchCtx(ctx, idx, q, Options{Camera: cam, MaxResults: 5}); err != nil {
		t.Fatal(err)
	}
	total := tr.Finish(nil)

	if tr.NodesVisited <= 0 {
		t.Fatalf("nodesVisited = %d, want > 0", tr.NodesVisited)
	}
	if tr.LeafEntriesScanned <= 0 {
		t.Fatalf("leafEntriesScanned = %d, want > 0", tr.LeafEntriesScanned)
	}
	if tr.Candidates <= 0 {
		t.Fatalf("candidates = %d, want > 0", tr.Candidates)
	}
	stages := map[string]int64{}
	var sum int64
	for _, st := range tr.Stages {
		stages[st.Stage] = st.Nanos
		sum += st.Nanos
	}
	for _, name := range []string{"search", "rank"} {
		if _, ok := stages[name]; !ok {
			t.Fatalf("stage %q missing from %v", name, stages)
		}
	}
	if sum > total.Nanoseconds() {
		t.Fatalf("stage sum %d exceeds total %d", sum, total.Nanoseconds())
	}
}
