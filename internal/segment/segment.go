// Package segment implements the paper's real-time video segmentation
// (Algorithm 1) and segment abstraction (Eq. 11, Section IV).
//
// A continuous mobile video is represented by its stream of per-frame
// sensor samples (t_i, p_i, theta_i). The segmenter splits the stream into
// segments whenever the FoV similarity between the segment's anchor frame
// f_s and the current frame f_i drops below a threshold. The decision is
// O(1) per frame, so it can run as a listener while the user is still
// recording. Each finished segment is then abstracted into a single
// representative FoV (the arithmetic — optionally circular — mean of the
// member FoVs) carrying the segment's time interval.
package segment

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
)

// Segmentation metrics (process-wide, obs.Default): frames in, segments
// out, and the measured per-frame cost of Algorithm 1 — the paper's O(1)
// ns/frame claim, continuously verified in production. Counters are
// incremented inline (one atomic add per frame); timing happens only at
// batch boundaries so the measurement does not distort the measured
// path: Split, and every capturer's batch (ObserveFrames).
var (
	framesTotal   = obs.GetOrCreateCounter("fovr_segment_frames_total")
	segmentsTotal = obs.GetOrCreateCounter("fovr_segment_segments_total")
	frameSeconds  = obs.GetOrCreateHistogram("fovr_segment_frame_seconds")
	splitSpan     = obs.NewSpanTimer("segment.split")
)

// Segment is one similarity-coherent piece of a video: the member samples,
// their index range in the original stream, and the time interval.
type Segment struct {
	// Samples are the member frames, in stream order.
	Samples []fov.Sample `json:"samples,omitempty"`
	// StartIndex and EndIndex are the inclusive frame indices of the
	// segment within the original stream.
	StartIndex int `json:"startIndex"`
	EndIndex   int `json:"endIndex"`
	// StartMillis and EndMillis are t_s and t_e.
	StartMillis int64 `json:"startMillis"`
	EndMillis   int64 `json:"endMillis"`
}

// Len returns the number of member frames.
func (s Segment) Len() int { return len(s.Samples) }

// DurationMillis returns the covered time span.
func (s Segment) DurationMillis() int64 { return s.EndMillis - s.StartMillis }

// Representative is the abstraction of a segment uploaded to the cloud
// (Section IV-B): one representative FoV plus the segment time interval.
// This — not the video, not the frames — is all the server ever sees.
type Representative struct {
	FoV         fov.FoV `json:"fov"`
	StartMillis int64   `json:"startMillis"`
	EndMillis   int64   `json:"endMillis"`
}

// Config controls segmentation and abstraction.
type Config struct {
	// Camera supplies alpha and R for the similarity measurement.
	Camera fov.Camera
	// Threshold is the segmentation threshold `thresh` of Algorithm 1:
	// a new segment starts when Sim(f_s, f_i) < Threshold. Must be in
	// (0, 1]. Larger thresholds segment more densely (Section VII).
	Threshold float64
	// CircularMean selects the circular mean for the representative
	// azimuth instead of the paper's plain arithmetic mean (Eq. 11),
	// which misbehaves when a segment's azimuths straddle the 0/360
	// wrap. Off by default for paper fidelity.
	CircularMean bool
	// KeepSamples controls whether finished segments retain their member
	// samples. The client pipeline only needs representatives, so
	// dropping samples keeps memory O(1) per open segment.
	KeepSamples bool
	// SmoothingAlpha, when in (0, 1), prefilters the sensor stream with
	// an exponential smoother (see Smoother) before segmentation — the
	// defense against GPS/compass jitter splitting a steady shot. Zero
	// (or 1) disables smoothing.
	SmoothingAlpha float64
	// MinSegmentMillis suppresses splits until the current segment has
	// lasted at least this long, bounding the segment-count inflation a
	// noisy sensor can cause. Zero disables the bound.
	MinSegmentMillis int64
}

// DefaultConfig is a reasonable walking-capture configuration.
var DefaultConfig = Config{
	Camera:      fov.DefaultCamera,
	Threshold:   0.5,
	KeepSamples: true,
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Camera.Validate(); err != nil {
		return err
	}
	if !(c.Threshold > 0 && c.Threshold <= 1) || math.IsNaN(c.Threshold) {
		return fmt.Errorf("segment: threshold %v out of range (0, 1]", c.Threshold)
	}
	if c.SmoothingAlpha < 0 || c.SmoothingAlpha > 1 || math.IsNaN(c.SmoothingAlpha) {
		return fmt.Errorf("segment: smoothing alpha %v out of [0, 1]", c.SmoothingAlpha)
	}
	if c.MinSegmentMillis < 0 {
		return fmt.Errorf("segment: negative minimum segment duration %d", c.MinSegmentMillis)
	}
	return nil
}

// ErrOutOfOrder is returned when a sample's timestamp precedes the previous
// sample's timestamp.
var ErrOutOfOrder = errors.New("segment: sample timestamp out of order")

// Segmenter is the streaming implementation of Algorithm 1. Feed it
// samples as the sensors deliver them; it emits a finished Segment each
// time the FoV drifts below the similarity threshold, in O(1) time and
// memory per frame (excluding retained samples when KeepSamples is set).
//
// Segmenter is not safe for concurrent use; a capture session owns one.
type Segmenter struct {
	cfg      Config
	smoother *Smoother

	open       bool
	anchor     fov.FoV // f_s of Algorithm 1
	index      int     // index of the next incoming frame
	startIndex int
	startMs    int64
	lastMs     int64
	samples    []fov.Sample

	// Running sums for the representative (Eq. 11).
	sumLat, sumLng float64
	sumSin, sumCos float64 // circular mean accumulators
	sumTheta       float64
	count          int
}

// NewSegmenter returns a streaming segmenter, or an error if the
// configuration is invalid.
func NewSegmenter(cfg Config) (*Segmenter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sg := &Segmenter{cfg: cfg}
	if cfg.SmoothingAlpha > 0 && cfg.SmoothingAlpha < 1 {
		sg.smoother = NewSmoother(cfg.SmoothingAlpha)
	}
	return sg, nil
}

// Config returns the segmenter's configuration.
func (sg *Segmenter) Config() Config { return sg.cfg }

// Push feeds the next sample. It returns a non-nil finished segment when
// the sample opened a new segment (i.e. the previous one just closed).
// Timestamps must be non-decreasing.
func (sg *Segmenter) Push(s fov.Sample) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if sg.open && s.UnixMillis < sg.lastMs {
		return nil, fmt.Errorf("%w: %d after %d", ErrOutOfOrder, s.UnixMillis, sg.lastMs)
	}
	if sg.smoother != nil {
		s = sg.smoother.Apply(s)
	}
	f := s.FoV().Normalize()

	if !sg.open {
		sg.begin(f, s)
		return nil, nil
	}

	if fov.Sim(sg.cfg.Camera, sg.anchor, f) < sg.cfg.Threshold &&
		s.UnixMillis-sg.startMs >= sg.cfg.MinSegmentMillis {
		// Line 4-10 of Algorithm 1: close the current segment at the
		// previous frame and start a new one anchored at f_i.
		res := sg.finish()
		sg.begin(f, s)
		return res, nil
	}

	sg.accumulate(f, s)
	return nil, nil
}

// Result bundles a finished segment with its representative.
type Result struct {
	Segment        Segment
	Representative Representative
}

func (sg *Segmenter) begin(f fov.FoV, s fov.Sample) {
	sg.open = true
	sg.anchor = f
	sg.startIndex = sg.index
	sg.startMs = s.UnixMillis
	sg.samples = nil
	sg.sumLat, sg.sumLng, sg.sumSin, sg.sumCos, sg.sumTheta = 0, 0, 0, 0, 0
	sg.count = 0
	sg.accumulate(f, s)
}

func (sg *Segmenter) accumulate(f fov.FoV, s fov.Sample) {
	if sg.cfg.KeepSamples {
		sg.samples = append(sg.samples, s)
	}
	sg.sumLat += f.P.Lat
	sg.sumLng += f.P.Lng
	rad := f.Theta * math.Pi / 180
	sg.sumSin += math.Sin(rad)
	sg.sumCos += math.Cos(rad)
	sg.sumTheta += f.Theta
	sg.count++
	sg.lastMs = s.UnixMillis
	sg.index++
	framesTotal.Inc()
}

func (sg *Segmenter) finish() *Result {
	seg := Segment{
		Samples:     sg.samples,
		StartIndex:  sg.startIndex,
		EndIndex:    sg.index - 1,
		StartMillis: sg.startMs,
		EndMillis:   sg.lastMs,
	}
	n := float64(sg.count)
	var theta float64
	if sg.cfg.CircularMean {
		theta = geo.NormalizeDeg(math.Atan2(sg.sumSin/n, sg.sumCos/n) * 180 / math.Pi)
	} else {
		theta = geo.NormalizeDeg(sg.sumTheta / n)
	}
	rep := Representative{
		FoV: fov.FoV{
			P:     geo.Point{Lat: sg.sumLat / n, Lng: sg.sumLng / n},
			Theta: theta,
		},
		StartMillis: sg.startMs,
		EndMillis:   sg.lastMs,
	}
	segmentsTotal.Inc()
	return &Result{Segment: seg, Representative: rep}
}

// Flush closes the open segment, if any, and returns it (line 15 of
// Algorithm 1: the tail segment is emitted when recording stops). The
// segmenter is reusable afterwards.
func (sg *Segmenter) Flush() *Result {
	if !sg.open {
		return nil
	}
	res := sg.finish()
	sg.open = false
	return res
}

// Open reports whether a segment is currently accumulating.
func (sg *Segmenter) Open() bool { return sg.open }

// FramesSeen returns the number of samples pushed so far.
func (sg *Segmenter) FramesSeen() int { return sg.index }

// Split runs Algorithm 1 over a complete sample sequence and returns all
// segments with their representatives, in order. It is the offline batch
// edition the evaluation section uses.
func Split(cfg Config, samples []fov.Sample) ([]Result, error) {
	sg, err := NewSegmenter(cfg)
	if err != nil {
		return nil, err
	}
	sp := splitSpan.Start()
	var out []Result
	for _, s := range samples {
		res, err := sg.Push(s)
		if err != nil {
			return nil, err
		}
		if res != nil {
			out = append(out, *res)
		}
	}
	if res := sg.Flush(); res != nil {
		out = append(out, *res)
	}
	ObserveFrames(sp.End(), len(samples))
	return out, nil
}

// ObserveFrames records that a batch of n frames took elapsed to push
// through a Segmenter: one observation of the per-frame cost. Split
// records each call; a streaming capturer records each batch it pushes.
func ObserveFrames(elapsed time.Duration, n int) {
	if n > 0 {
		frameSeconds.Observe(elapsed.Seconds() / float64(n))
	}
}

// Representatives extracts just the uploadable representatives from a
// batch segmentation result.
func Representatives(results []Result) []Representative {
	reps := make([]Representative, len(results))
	for i, r := range results {
		reps[i] = r.Representative
	}
	return reps
}
