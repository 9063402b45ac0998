// Package geo provides the small geodesy toolbox the FoV retrieval system
// is built on: the equirectangular Earth projection the paper specifies in
// Eq. (12), great-circle cross-checks, compass bearings, and local
// east-north displacement vectors.
//
// Conventions used throughout the repository:
//
//   - Latitude and longitude are in decimal degrees (WGS-ish, but the paper
//     models the Earth as a perfect sphere of radius 6378140 m, and so do
//     we).
//   - Azimuths and bearings are compass-style: 0° points north, angles grow
//     clockwise, and every function returns values normalized to [0, 360).
//   - Distances are in meters.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the spherical Earth radius used by the paper
// (Section VI-A, "Transformation of GPS Information").
const EarthRadiusMeters = 6378140.0

// MetersPerDegree is the length of one degree of a great circle on the
// paper's spherical Earth: 2*pi*r_e / 360.
const MetersPerDegree = 2 * math.Pi * EarthRadiusMeters / 360

// Point is a geographic position in degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// Valid reports whether the point lies in the usual geographic ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lng)
}

// Vec is a local east-north displacement in meters.
type Vec struct {
	East  float64
	North float64
}

// Norm returns the Euclidean length of v in meters.
func (v Vec) Norm() float64 { return math.Hypot(v.East, v.North) }

// Bearing returns the compass direction of v in degrees [0, 360).
// The zero vector has bearing 0 by convention.
func (v Vec) Bearing() float64 {
	if v.East == 0 && v.North == 0 {
		return 0
	}
	// atan2 argument order gives the angle from north, clockwise.
	return NormalizeDeg(math.Atan2(v.East, v.North) * 180 / math.Pi)
}

// Displacement returns the local east-north vector from a to b using the
// paper's equirectangular approximation (Eq. 12): longitude differences are
// scaled by the cosine of the mid-latitude, latitude differences map
// directly to meridian arc length.
//
// The paper's Eq. (12) writes cos((Lng2-Lng1)/2); that is a typo for the
// mid-*latitude* (a longitude difference under a cosine has no geometric
// meaning and breaks the small-displacement limit). We use the standard
// equirectangular form, which matches the paper's intent and its numeric
// examples.
func Displacement(a, b Point) Vec {
	midLat := (a.Lat + b.Lat) / 2 * math.Pi / 180
	// Longitude differences wrap at the antimeridian: two points at
	// ±179.9° are ~22 km apart, not ~40,000 km.
	dLng := math.Mod(b.Lng-a.Lng, 360)
	if dLng > 180 {
		dLng -= 360
	} else if dLng < -180 {
		dLng += 360
	}
	return Vec{
		East:  MetersPerDegree * math.Cos(midLat) * dLng,
		North: MetersPerDegree * (b.Lat - a.Lat),
	}
}

// Distance returns the equirectangular distance in meters between a and b.
// This is the paper's delta_p (Eq. 2 / Eq. 12).
func Distance(a, b Point) float64 { return Displacement(a, b).Norm() }

// HaversineDistance returns the great-circle distance in meters between a
// and b on the spherical Earth. It is used in tests as an independent
// cross-check of Distance for the small displacements FoVs involve.
func HaversineDistance(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := lat2 - lat1
	dLng := (b.Lng - a.Lng) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLng/2)*math.Sin(dLng/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Bearing returns the compass bearing in degrees [0, 360) of b as seen from
// a, i.e. the paper's translation direction theta_p before it is made
// relative to the camera orientation.
func Bearing(a, b Point) float64 { return Displacement(a, b).Bearing() }

// Offset returns the point reached from p by moving the given distance in
// meters along the given compass bearing in degrees, under the same
// equirectangular approximation. It is the inverse of Displacement for
// small displacements and is the primitive the trace simulator moves with.
func Offset(p Point, bearingDeg, meters float64) Point {
	rad := bearingDeg * math.Pi / 180
	dNorth := meters * math.Cos(rad)
	dEast := meters * math.Sin(rad)
	lat := p.Lat + dNorth/MetersPerDegree
	midLat := (p.Lat + lat) / 2 * math.Pi / 180
	cos := math.Cos(midLat)
	lng := p.Lng
	if cos != 0 {
		lng += dEast / (MetersPerDegree * cos)
	}
	// Keep longitude in [-180, 180] across the antimeridian.
	if lng > 180 {
		lng -= 360
	} else if lng < -180 {
		lng += 360
	}
	return Point{Lat: lat, Lng: lng}
}

// NormalizeDeg maps any angle in degrees to [0, 360).
func NormalizeDeg(deg float64) float64 {
	d := math.Mod(deg, 360)
	if d < 0 {
		d += 360
	}
	// Mod can return 360 - epsilon rounding artifacts; also fold exact 360.
	if d >= 360 {
		d -= 360
	}
	return d
}

// AngleDiff returns the absolute circular difference between two compass
// angles in degrees, in [0, 180]. This is the paper's delta_theta (Eq. 2).
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeDeg(a) - NormalizeDeg(b))
	if d > 180 {
		d = 360 - d
	}
	return d
}

// SignedAngleDiff returns the smallest signed rotation in degrees that
// carries compass angle a onto b, in (-180, 180].
func SignedAngleDiff(a, b float64) float64 {
	d := math.Mod(NormalizeDeg(b)-NormalizeDeg(a), 360)
	if d > 180 {
		d -= 360
	} else if d <= -180 {
		d += 360
	}
	return d
}

// Lerp linearly interpolates between two points.
func Lerp(a, b Point, t float64) Point {
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*t,
		Lng: a.Lng + (b.Lng-a.Lng)*t,
	}
}

// Rect is an axis-aligned geographic bounding box.
type Rect struct {
	MinLat, MinLng float64
	MaxLat, MaxLng float64
}

// RectAround returns the bounding box of the circle of the given radius in
// meters centered at p, converted to longitude/latitude scales at p, as
// the index does for a query's reach (Section V-B).
//
// A box is dateline-naive: one whose circle straddles ±180° extends past
// the legal longitude range rather than splitting in two. The index cuts
// a query's box at the antimeridian itself, so a query centered near it
// finds the entries on the far side; point-to-point Distance/Bearing/
// Offset are dateline-correct.
func RectAround(p Point, radiusMeters float64) Rect {
	dLat := radiusMeters / MetersPerDegree
	cos := math.Cos(p.Lat * math.Pi / 180)
	dLng := dLat
	if cos > 1e-12 {
		dLng = radiusMeters / (MetersPerDegree * cos)
	}
	return Rect{
		MinLat: p.Lat - dLat, MaxLat: p.Lat + dLat,
		MinLng: p.Lng - dLng, MaxLng: p.Lng + dLng,
	}
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lng >= r.MinLng && p.Lng <= r.MaxLng
}

// Intersects reports whether two boxes overlap (inclusive).
func (r Rect) Intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLng <= o.MaxLng && o.MinLng <= r.MaxLng
}

// Center returns the box center.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lng: (r.MinLng + r.MaxLng) / 2}
}
