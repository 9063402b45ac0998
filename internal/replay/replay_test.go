package replay

import (
	"testing"
	"time"

	"fovr/internal/obs"
)

func smallConfig() Config {
	return Config{
		Seed:           5,
		Providers:      40,
		CaptureSeconds: 30,
		SampleHz:       5,
		ExtentMeters:   800,
		HorizonMillis:  600_000,
		Queries:        100,
		QueryRadius:    20,
	}
}

func TestRunProducesCoherentMetrics(t *testing.T) {
	m, srv, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Providers != 40 {
		t.Fatalf("providers %d", m.Providers)
	}
	// 40 providers x 30 s x 5 Hz (+1 inclusive sample).
	if m.Frames != 40*151 {
		t.Fatalf("frames %d, want %d", m.Frames, 40*151)
	}
	if m.Segments <= 0 || m.Segments > m.Frames {
		t.Fatalf("segments %d implausible", m.Segments)
	}
	if n := srv.Index().Len(); n != m.Segments {
		t.Fatalf("server holds %d segments, metrics say %d", n, m.Segments)
	}
	// Descriptor traffic stays tiny: tens of bytes per segment.
	if perSeg := float64(m.UploadBytes) / float64(m.Segments); perSeg > 40 {
		t.Fatalf("upload %.1f bytes/segment", perSeg)
	}
	if m.RawVideoMB < 100 {
		t.Fatalf("raw video model %v MB implausibly small", m.RawVideoMB)
	}
	if m.Queries != 100 {
		t.Fatalf("queries %d", m.Queries)
	}
	// The abstract's claim with huge headroom: every percentile far
	// under 100 ms.
	if m.QueryP99 > 100*time.Millisecond {
		t.Fatalf("p99 query latency %v breaks the <100 ms claim", m.QueryP99)
	}
	if m.QueryP50 > m.QueryP99 || m.QueryP99 > m.QueryMax {
		t.Fatal("latency percentiles out of order")
	}
	// Queries target filmed spots with generous windows; a decent share
	// must return something.
	if m.ResultsTotal == 0 {
		t.Fatal("no query returned anything")
	}
	// Stage timings must be populated and bounded by total ingest time.
	for name, d := range map[string]time.Duration{
		"capture": m.CaptureTime,
		"segment": m.SegmentTime,
		"encode":  m.EncodeTime,
		"index":   m.IndexTime,
	} {
		if d <= 0 {
			t.Errorf("%s stage time = %v, want > 0", name, d)
		}
	}
	if sum := m.CaptureTime + m.SegmentTime + m.EncodeTime + m.IndexTime; sum > m.IngestTime {
		t.Errorf("stage times sum to %v, more than total ingest %v", sum, m.IngestTime)
	}
}

func TestRunDeterministicIngest(t *testing.T) {
	a, _, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Everything except wall-clock timings must match exactly.
	if a.Frames != b.Frames || a.Segments != b.Segments ||
		a.UploadBytes != b.UploadBytes || a.ResultsTotal != b.ResultsTotal {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestRunPinnedCounts pins the deterministic counts of the scale table's
// first row (DefaultConfig, 50 providers, 200 queries) to the figures the
// replay produced when it ran on its own in-process index, before it moved
// onto server.Server: the move must not change what is segmented, encoded,
// indexed or found. One result fewer than then (1 613, not 1 614): the
// coverage filter became exact, and one camera whose sector missed its
// query disc is no longer found.
func TestRunPinnedCounts(t *testing.T) {
	cfg := DefaultConfig
	cfg.Providers = 50
	cfg.Queries = 200
	m, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Frames != 30_050 || m.Segments != 557 || m.UploadBytes != 9_250 || m.ResultsTotal != 1_613 {
		t.Fatalf("frames/segments/bytes/results = %d/%d/%d/%d, want 30050/557/9250/1613",
			m.Frames, m.Segments, m.UploadBytes, m.ResultsTotal)
	}
}

// TestRunObservesFrameCost: a replay segments through capture sessions,
// not segment.Split, and each provider's capture batch still records
// Algorithm 1's per-frame cost.
func TestRunObservesFrameCost(t *testing.T) {
	frames := obs.GetOrCreateHistogram("fovr_segment_frame_seconds")
	before := frames.Count()
	cfg := smallConfig()
	if _, _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := frames.Count() - before; got != int64(cfg.Providers) {
		t.Fatalf("fovr_segment_frame_seconds_count grew by %d, want %d (one per capture)", got, cfg.Providers)
	}
}

func TestRunScalesSegmentsWithProviders(t *testing.T) {
	small := smallConfig()
	big := smallConfig()
	big.Providers = 80
	ms, _, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Segments <= ms.Segments {
		t.Fatalf("doubling providers did not grow the corpus: %d vs %d", mb.Segments, ms.Segments)
	}
}
