// Package core is the front door of the reproduction: a single System
// type that wires the paper's full pipeline together — real-time FoV
// segmentation on the capture side, the spatio-temporal R-tree index on
// the cloud side, and rank-based retrieval in between — so that an
// application can go from raw sensor samples to ranked video segments in
// three calls:
//
//	sys, _ := core.NewSystem(core.Config{})
//	ids, _ := sys.Contribute("alice", samples)   // segment + index
//	hits, _ := sys.Search(q, 10)                 // ranked retrieval
//
// System is the in-process embodiment of the three-party architecture of
// Section II (provider, cloud, querier); packages server and client
// provide the same pipeline split across HTTP for deployments that want
// separate processes.
package core

import (
	"errors"
	"fmt"
	"sync"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

// Stage timers, resolved once against the Default registry instead of a
// per-call registry lookup on the ingest/search hot paths.
var (
	insertSpan = obs.NewSpanTimer("index.insert")
	searchSpan = obs.NewSpanTimer("query.search")
)

// Config assembles the pipeline.
type Config struct {
	// Camera is the shared viewing geometry: it drives the similarity
	// measurement, the segmentation, and the retrieval orientation
	// filter. Zero value selects fov.DefaultCamera.
	Camera fov.Camera
	// SegmentThreshold is Algorithm 1's thresh; zero selects 0.5.
	SegmentThreshold float64
	// CircularMean selects circular azimuth averaging for segment
	// abstraction (see segment.Config).
	CircularMean bool
	// DefaultMaxResults caps Search when n <= 0; zero selects 20.
	DefaultMaxResults int
}

func (c Config) withDefaults() Config {
	if c.Camera == (fov.Camera{}) {
		c.Camera = fov.DefaultCamera
	}
	if c.SegmentThreshold == 0 {
		c.SegmentThreshold = 0.5
	}
	if c.DefaultMaxResults == 0 {
		c.DefaultMaxResults = 20
	}
	return c
}

// System is the end-to-end content-free retrieval system. It is safe for
// concurrent use.
type System struct {
	cfg Config
	idx *index.RTree

	mu     sync.Mutex
	nextID uint64
}

// NewSystem builds a System, or fails on invalid configuration.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Camera.Validate(); err != nil {
		return nil, err
	}
	if cfg.SegmentThreshold <= 0 || cfg.SegmentThreshold > 1 {
		return nil, fmt.Errorf("core: segment threshold %v out of (0, 1]", cfg.SegmentThreshold)
	}
	return &System{cfg: cfg, idx: index.NewRTree(), nextID: 1}, nil
}

// Camera returns the system's viewing geometry.
func (s *System) Camera() fov.Camera { return s.cfg.Camera }

// SegmentConfig returns the segmentation configuration providers should
// capture with.
func (s *System) SegmentConfig() segment.Config {
	return segment.Config{
		Camera:       s.cfg.Camera,
		Threshold:    s.cfg.SegmentThreshold,
		CircularMean: s.cfg.CircularMean,
	}
}

// Contribute ingests a complete capture: the sample stream is segmented
// with Algorithm 1, abstracted to representative FoVs (Eq. 11), and the
// representatives are indexed. It returns the assigned segment ids, one
// per segment in capture order.
func (s *System) Contribute(provider string, samples []fov.Sample) ([]uint64, error) {
	if provider == "" {
		return nil, errors.New("core: empty provider")
	}
	results, err := segment.Split(s.SegmentConfig(), samples)
	if err != nil {
		return nil, err
	}
	return s.Ingest(provider, segment.Representatives(results))
}

// Ingest indexes pre-segmented representatives (the path uploads from
// remote clients take after wire decoding).
func (s *System) Ingest(provider string, reps []segment.Representative) ([]uint64, error) {
	if provider == "" {
		return nil, errors.New("core: empty provider")
	}
	sp := insertSpan.Start()
	defer sp.End()
	s.mu.Lock()
	start := s.nextID
	s.nextID += uint64(len(reps))
	s.mu.Unlock()
	ids := make([]uint64, len(reps))
	entries := make([]index.Entry, len(reps))
	for i, rep := range reps {
		ids[i] = start + uint64(i)
		entries[i] = index.Entry{ID: ids[i], Provider: provider, Rep: rep}
	}
	// All-or-nothing: a rejected representative leaves none indexed.
	if err := s.idx.InsertBatch(entries); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return ids, nil
}

// IngestUpload indexes a wire-format upload.
func (s *System) IngestUpload(u wire.Upload) ([]uint64, error) {
	return s.Ingest(u.Provider, u.Reps)
}

// Search answers a retrieval request with the top n ranked segments
// (n <= 0 selects the configured default).
func (s *System) Search(q query.Query, n int) ([]query.Ranked, error) {
	if n <= 0 {
		n = s.cfg.DefaultMaxResults
	}
	sp := searchSpan.Start()
	defer sp.End()
	return query.Search(s.idx, q, query.Options{Camera: s.cfg.Camera, MaxResults: n})
}

// Forget removes a segment by id (a provider withdrawing a contribution),
// reporting whether it was present. The index removes by entry, so the
// id's entry is found by scanning the published snapshot.
func (s *System) Forget(id uint64) bool {
	var gone []index.Entry
	s.idx.Scan(func(e *index.Entry) bool {
		if e.ID == id {
			gone = append(gone, *e)
		}
		return gone == nil
	})
	return s.idx.RemoveBatch(gone) == 1
}

// Len returns the number of indexed segments.
func (s *System) Len() int { return s.idx.Len() }

// Index exposes the underlying index for benchmarks and diagnostics.
func (s *System) Index() *index.RTree { return s.idx }
