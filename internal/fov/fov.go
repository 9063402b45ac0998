// Package fov defines the paper's content-free video descriptor — the
// Field of View — and the similarity measurement over FoV pairs that the
// whole retrieval system is built on (Section III of the paper).
//
// An FoV is the 2-tuple f = (p, theta) of Eq. (1): the GPS position of the
// camera and its compass azimuth. Together with the camera's fixed viewing
// half-angle alpha and an empirical radius of view R, it describes the
// conical ground area the frame can see.
//
// The similarity between two FoVs decomposes the relative camera motion
// into a rotation (Eq. 4) and a translation; the translation is further
// orthogonally decomposed into components parallel and perpendicular to
// the optical axis (Eqs. 5-7) and blended by the translation direction
// (Eq. 9). Total similarity is the product of the rotation and translation
// terms (Eq. 10). All similarities are normalized to [0, 1], with 1 iff
// the two FoVs coincide (Eq. 3).
package fov

import (
	"errors"
	"fmt"
	"math"

	"fovr/internal/geo"
)

// Camera describes the fixed optical parameters of a recording device:
// the viewing half-angle alpha (so the full viewing angle is 2*alpha) and
// the empirical radius of view R in meters (Section VII: e.g. 20 m in a
// residential area, 100 m on a highway).
type Camera struct {
	// HalfAngleDeg is alpha in degrees; the camera covers
	// (theta-alpha, theta+alpha). Must be in (0, 90).
	HalfAngleDeg float64 `json:"halfAngleDeg"`
	// RadiusMeters is the radius of view R in meters. Must be positive.
	RadiusMeters float64 `json:"radiusMeters"`
}

// DefaultCamera matches a typical smartphone main camera: a 60 degree
// viewing angle (alpha = 30) with the paper's residential-area radius of
// view.
var DefaultCamera = Camera{HalfAngleDeg: 30, RadiusMeters: 20}

// Validate reports whether the camera parameters are usable.
func (c Camera) Validate() error {
	if !(c.HalfAngleDeg > 0 && c.HalfAngleDeg < 90) {
		return fmt.Errorf("fov: half angle %v degrees out of range (0, 90)", c.HalfAngleDeg)
	}
	if !(c.RadiusMeters > 0) || math.IsInf(c.RadiusMeters, 0) {
		return fmt.Errorf("fov: radius of view %v m must be positive and finite", c.RadiusMeters)
	}
	return nil
}

// ViewingAngleDeg returns the full viewing angle 2*alpha in degrees.
func (c Camera) ViewingAngleDeg() float64 { return 2 * c.HalfAngleDeg }

// FoV is the content-free frame descriptor f = (p, theta) of Eq. (1).
type FoV struct {
	P     geo.Point `json:"p"`     // camera position
	Theta float64   `json:"theta"` // compass azimuth in degrees [0, 360)
}

// Normalize returns f with Theta folded into [0, 360).
func (f FoV) Normalize() FoV {
	f.Theta = geo.NormalizeDeg(f.Theta)
	return f
}

// Validate reports whether the FoV fields are in range.
func (f FoV) Validate() error {
	if !f.P.Valid() {
		return fmt.Errorf("fov: invalid position %v", f.P)
	}
	if math.IsNaN(f.Theta) || math.IsInf(f.Theta, 0) {
		return errors.New("fov: azimuth is not finite")
	}
	return nil
}

func (f FoV) String() string {
	return fmt.Sprintf("FoV{%v, %.1f°}", f.P, f.Theta)
}

// Sample is one timestamped sensor record (t_i, p_i, theta_i) as merged by
// the capture backstage (Section II-C). Time is in milliseconds since the
// Unix epoch, the resolution COTS sensors deliver.
type Sample struct {
	UnixMillis int64     `json:"t"`
	P          geo.Point `json:"p"`
	Theta      float64   `json:"theta"`
}

// FoV returns the descriptor part of the sample.
func (s Sample) FoV() FoV { return FoV{P: s.P, Theta: s.Theta} }

// Validate reports whether the sample is usable.
func (s Sample) Validate() error {
	if s.UnixMillis < 0 {
		return fmt.Errorf("fov: negative timestamp %d", s.UnixMillis)
	}
	return s.FoV().Validate()
}

// Delta captures the relative pose between two FoVs: the translation
// distance delta_p, the translation direction theta_p (compass degrees),
// and the rotation delta_theta — the quantities of Eq. (2) and Eq. (12).
type Delta struct {
	DistMeters   float64 // delta_p
	DirectionDeg float64 // theta_p, compass bearing from f1.P to f2.P
	RotationDeg  float64 // delta_theta in [0, 180]
}

// DeltaOf computes the relative pose from f1 to f2.
func DeltaOf(f1, f2 FoV) Delta {
	v := geo.Displacement(f1.P, f2.P)
	return Delta{
		DistMeters:   v.Norm(),
		DirectionDeg: v.Bearing(),
		RotationDeg:  geo.AngleDiff(f1.Theta, f2.Theta),
	}
}

// CoversCircle reports whether the viewable sector meets the disc of the
// given radius around q: the coverage test of Section V-B's orientation
// filter, relaxed from the query point to the query range so that a
// range partially seen by a camera still matches. At radius 0 it is the
// point test: q lies in the sector (standing on the camera counts).
func (f FoV) CoversCircle(c Camera, q geo.Point, radiusMeters float64) bool {
	v := geo.Displacement(f.P, q)
	return f.CircleCoverage(c, v, v.Norm(), radiusMeters) == Covered
}

// Coverage is the outcome of the circle-coverage test as a code: what a
// filter loop counts per candidate without building a diagnosis.
type Coverage uint8

const (
	// Covered: the sector meets the disc.
	Covered Coverage = iota
	// TooFar: the camera stands beyond R + r (MissDistance).
	TooFar
	// FacingAway: near enough, wrong direction (MissOrientation).
	FacingAway
	// NumCoverage sizes a per-outcome counter array.
	NumCoverage
)

// The reasons a failed coverage test is reported under, in traces and
// their per-reason counts.
const (
	// MissDistance: the camera stands beyond R + r, so its sector
	// cannot reach the query disc at all.
	MissDistance = "distance"
	// MissOrientation: the camera is near enough but faces the wrong
	// way — the improper-direction exclusion of Section V-B.
	MissOrientation = "orientation"
)

// Reason returns the outcome's miss reason ("" for Covered).
func (c Coverage) Reason() string { return [NumCoverage]string{"", MissDistance, MissOrientation}[c] }

// CircleCoverage is the CoversCircle test on a displacement the caller
// already has: v = geo.Displacement(f.P, q) and d = v.Norm(), which the
// ranker computes once per candidate for its distance key. It is exact:
// Covered iff the sector comes within radiusMeters of q (SectorDistance).
func (f FoV) CircleCoverage(c Camera, v geo.Vec, d, radiusMeters float64) Coverage {
	switch {
	case d > c.RadiusMeters+radiusMeters:
		return TooFar
	case d <= radiusMeters || f.SectorDistance(c, v, d) <= radiusMeters:
		return Covered // the apex is in the sector, so a camera inside the disc covers it
	}
	return FacingAway
}

// SectorDistance returns how far, in metres, the point at displacement v
// from the camera (d = v.Norm()) lies from the FoV's viewable sector: 0
// inside it. A trace reports it, less the query radius, as how far a
// dropped camera's sector misses the query disc. Camera.Validate keeps
// alpha below 90°, so the sector is convex and two cases decide: a
// point inside the angular range is in the sector within R and nearest
// the arc beyond it; one outside it is nearest the nearer edge, the
// segment from the apex to R along theta ± alpha, beta degrees from v.
func (f FoV) SectorDistance(c Camera, v geo.Vec, d float64) float64 {
	beta := geo.AngleDiff(v.Bearing(), f.Theta) - c.HalfAngleDeg
	if beta <= 0 {
		return max(d-c.RadiusMeters, 0)
	}
	sin, cos := math.Sincos(beta * math.Pi / 180)
	along := d * cos // v projected onto the edge
	if along <= 0 {
		return d // nearest the apex
	}
	return math.Hypot(max(along-c.RadiusMeters, 0), d*sin)
}
