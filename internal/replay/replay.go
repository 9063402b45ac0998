// Package replay drives the complete system the way a deployment would
// experience it: a city of providers walking around recording, their
// sensor streams segmented in real time and the descriptors registered
// with the cloud, and a population of inquirers issuing ranked queries —
// with end-to-end metrics (descriptor traffic, index growth, query
// latency percentiles) collected along the way. It is the system-scale
// experiment behind the abstract's "scalable with data size" claim.
package replay

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/trace"
	"fovr/internal/wire"
)

// Config sizes the simulated city.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// Providers is the number of contributors.
	Providers int
	// CaptureSeconds is each provider's recording length.
	CaptureSeconds float64
	// SampleHz is the sensor rate.
	SampleHz float64
	// ExtentMeters is the city half-width providers start within.
	ExtentMeters float64
	// HorizonMillis spreads capture start times.
	HorizonMillis int64
	// Queries is the number of retrieval requests issued after ingest.
	Queries int
	// QueryRadius is the inquirers' search radius in meters.
	QueryRadius float64
	// Noise is the sensor error model applied to every capture.
	Noise trace.Noise
}

// DefaultConfig is a mid-size city hour.
var DefaultConfig = Config{
	Seed:           1,
	Providers:      200,
	CaptureSeconds: 60,
	SampleHz:       10,
	ExtentMeters:   2000,
	HorizonMillis:  3_600_000,
	Queries:        300,
	QueryRadius:    20,
	Noise:          trace.DefaultNoise,
}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.Providers <= 0 {
		c.Providers = d.Providers
	}
	if c.CaptureSeconds <= 0 {
		c.CaptureSeconds = d.CaptureSeconds
	}
	if c.SampleHz <= 0 {
		c.SampleHz = d.SampleHz
	}
	if c.ExtentMeters <= 0 {
		c.ExtentMeters = d.ExtentMeters
	}
	if c.HorizonMillis <= 0 {
		c.HorizonMillis = d.HorizonMillis
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.QueryRadius <= 0 {
		c.QueryRadius = d.QueryRadius
	}
	return c
}

// Metrics is what the run measured: volume counters, per-stage wall
// time for the capture → segment → upload-encode → index pipeline, and
// the query latency percentiles that map to the paper's Section VI
// response-time evaluation.
type Metrics struct {
	Providers    int
	Frames       int
	Segments     int
	UploadBytes  int64
	RawVideoMB   float64 // what a data-centric system would have moved
	IngestTime   time.Duration
	CaptureTime  time.Duration // generating + noising sensor traces
	SegmentTime  time.Duration // Algorithm 1 over every trace
	EncodeTime   time.Duration // wire-format descriptor encoding
	IndexTime    time.Duration // R-tree insertion
	Queries      int
	ResultsTotal int
	QueryP50     time.Duration
	QueryP95     time.Duration
	QueryP99     time.Duration
	QueryMax     time.Duration
}

// Run executes the simulation against a fresh in-memory Server and
// returns the measured metrics.
func Run(cfg Config) (Metrics, *server.Server, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cam := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
	srv, err := server.New(server.Config{Camera: cam})
	if err != nil {
		return Metrics{}, nil, err
	}
	segCfg := segment.Config{Camera: cam, Threshold: 0.5, CircularMean: true}

	var m Metrics
	m.Providers = cfg.Providers

	// Ingest phase: every provider walks, segments, uploads. Each stage
	// is timed separately so the report can say where ingest wall time
	// actually goes.
	samplePoints := make([]fov.Sample, 0, cfg.Providers) // one per provider, for query placement
	ingestStart := time.Now()
	for p := 0; p < cfg.Providers; p++ {
		captureStart := time.Now()
		origin := geo.Offset(trace.ScenarioOrigin, rng.Float64()*360, rng.Float64()*cfg.ExtentMeters)
		start := int64(rng.Float64() * float64(cfg.HorizonMillis))
		clean, err := trace.RandomWalk(trace.Config{SampleHz: cfg.SampleHz, StartMillis: start},
			rng, origin, 1.4, 6, cfg.CaptureSeconds)
		if err != nil {
			return Metrics{}, nil, err
		}
		noisy := cfg.Noise.Apply(rng, clean)
		m.CaptureTime += time.Since(captureStart)
		m.Frames += len(noisy)
		samplePoints = append(samplePoints, noisy[rng.Intn(len(noisy))])

		// The client path: stream through the real-time segmenter.
		segmentStart := time.Now()
		sess, err := client.NewCaptureSession(fmt.Sprintf("p%04d", p), segCfg)
		if err != nil {
			return Metrics{}, nil, err
		}
		if err := sess.PushAll(noisy); err != nil {
			return Metrics{}, nil, err
		}
		u := sess.Stop()
		m.SegmentTime += time.Since(segmentStart)
		// Every device shares the server's camera, so the upload omits it.
		u.Camera = fov.Camera{}
		encodeStart := time.Now()
		data, err := wire.EncodeBinary(u)
		if err != nil {
			return Metrics{}, nil, err
		}
		m.EncodeTime += time.Since(encodeStart)
		m.UploadBytes += int64(len(data))
		indexStart := time.Now()
		ids, err := srv.Register(u)
		if err != nil {
			return Metrics{}, nil, err
		}
		m.IndexTime += time.Since(indexStart)
		m.Segments += len(ids)
	}
	m.IngestTime = time.Since(ingestStart)
	m.RawVideoMB = float64(cfg.Providers) * cfg.CaptureSeconds * 30 * 854 * 480 * 0.1 / 8 / 1e6

	// Query phase: inquirers probe spots providers actually filmed.
	lat := make([]time.Duration, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		s := samplePoints[rng.Intn(len(samplePoints))]
		center := geo.Offset(s.P, s.Theta, 20+rng.Float64()*50)
		q := query.Query{
			StartMillis:  s.UnixMillis - 60_000,
			EndMillis:    s.UnixMillis + 60_000,
			Center:       center,
			RadiusMeters: cfg.QueryRadius,
		}
		begin := time.Now()
		hits, err := srv.Query(q, 10)
		if err != nil {
			return Metrics{}, nil, err
		}
		lat = append(lat, time.Since(begin))
		m.ResultsTotal += len(hits)
	}
	m.Queries = len(lat)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	m.QueryP50, m.QueryP95, m.QueryP99, m.QueryMax = pct(0.50), pct(0.95), pct(0.99), pct(1.0)
	return m, srv, nil
}
