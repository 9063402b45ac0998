// Package geotree implements the prior-art baseline the paper positions
// itself against: the GeoTree / GRVS scheme of Arslan Ay et al. [9],
// where each video frame's *viewable scene* is estimated as a geographic
// bounding rectangle, runs of adjacent frames are aggregated into one
// MBR, and the MBRs are indexed in a purely spatial tree.
//
// The paper's Section I criticism of this design is what package index
// fixes, and this package exists so the comparison can be measured:
//
//  1. "None of the existing work considers the temporal information of
//     videos" — GeoTree has no time dimension, so a query for *yesterday
//     afternoon* returns frames from any moment ever recorded.
//  2. "Existing architecture only return a set of discrete video frames
//     ... rather than continuous video segments" — hits are frame
//     groups, not playable segments.
//  3. The aggregation rule is a fixed-size run of adjacent frames, which
//     only stays tight when the camera moves simply.
//
// The tree substrate is reused from package rtree with the time
// dimension pinned to zero.
package geotree

import (
	"fmt"
	"math"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/rtree"
)

// SceneRect returns the geographic bounding rectangle of the viewable
// scene of one FoV: the sector with apex f.P, orientation f.Theta, half
// angle alpha and radius R ([8]'s "viewable scene model" with rectangle
// estimation). The box covers the apex, both sector edge endpoints, and
// every cardinal extreme of the arc that falls inside the angular range.
func SceneRect(c fov.Camera, f fov.FoV) geo.Rect {
	pts := []geo.Point{
		f.P,
		geo.Offset(f.P, f.Theta-c.HalfAngleDeg, c.RadiusMeters),
		geo.Offset(f.P, f.Theta+c.HalfAngleDeg, c.RadiusMeters),
		geo.Offset(f.P, f.Theta, c.RadiusMeters),
	}
	// Cardinal directions inside the sector bow the arc out to its
	// extreme in that direction.
	for _, cardinal := range []float64{0, 90, 180, 270} {
		if geo.AngleDiff(cardinal, f.Theta) < c.HalfAngleDeg {
			pts = append(pts, geo.Offset(f.P, cardinal, c.RadiusMeters))
		}
	}
	r := geo.Rect{
		MinLat: math.Inf(1), MinLng: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLng: math.Inf(-1),
	}
	for _, p := range pts {
		r.MinLat = math.Min(r.MinLat, p.Lat)
		r.MaxLat = math.Max(r.MaxLat, p.Lat)
		r.MinLng = math.Min(r.MinLng, p.Lng)
		r.MaxLng = math.Max(r.MaxLng, p.Lng)
	}
	return r
}

// Group is one aggregated run of adjacent frames: the index range in the
// source video and the union MBR of their viewable scenes.
type Group struct {
	VideoID    string
	StartFrame int
	EndFrame   int // inclusive
	MBR        geo.Rect
}

// Frames returns the number of frames in the group.
func (g Group) Frames() int { return g.EndFrame - g.StartFrame + 1 }

// Options configure the GeoTree.
type Options struct {
	// Camera supplies the viewable-scene geometry.
	Camera fov.Camera
	// GroupSize is the fixed aggregation run length (frames per MBR).
	// Zero selects 32.
	GroupSize int
}

// Tree is the GeoTree baseline index.
type Tree struct {
	opts   Options
	tree   *rtree.Tree[Group]
	frames int
}

// New builds an empty GeoTree.
func New(opts Options) (*Tree, error) {
	if err := opts.Camera.Validate(); err != nil {
		return nil, err
	}
	if opts.GroupSize == 0 {
		opts.GroupSize = 32
	}
	if opts.GroupSize < 1 {
		return nil, fmt.Errorf("geotree: group size %d < 1", opts.GroupSize)
	}
	return &Tree{opts: opts, tree: rtree.MustNew(rtree.DefaultOptions, groupRect)}, nil
}

// AddVideo ingests a whole frame sequence: scenes are aggregated into
// fixed-size runs and each run's MBR is indexed. Unlike the FoV pipeline
// there is no similarity test — adjacency is the only grouping rule.
func (t *Tree) AddVideo(videoID string, fovs []fov.FoV) error {
	if videoID == "" {
		return fmt.Errorf("geotree: empty video id")
	}
	for start := 0; start < len(fovs); start += t.opts.GroupSize {
		end := start + t.opts.GroupSize - 1
		if end >= len(fovs) {
			end = len(fovs) - 1
		}
		var mbr geo.Rect
		for i := start; i <= end; i++ {
			if err := fovs[i].Validate(); err != nil {
				return fmt.Errorf("geotree: frame %d: %w", i, err)
			}
			sr := SceneRect(t.opts.Camera, fovs[i])
			if i == start {
				mbr = sr
			} else {
				mbr.MinLat = math.Min(mbr.MinLat, sr.MinLat)
				mbr.MaxLat = math.Max(mbr.MaxLat, sr.MaxLat)
				mbr.MinLng = math.Min(mbr.MinLng, sr.MinLng)
				mbr.MaxLng = math.Max(mbr.MaxLng, sr.MaxLng)
			}
		}
		g := Group{VideoID: videoID, StartFrame: start, EndFrame: end, MBR: mbr}
		if err := t.tree.Insert(g); err != nil {
			return err
		}
	}
	t.frames += len(fovs)
	return nil
}

// Search returns every frame group whose scene MBR intersects the query
// rectangle. There is no temporal filtering — GeoTree has no time axis —
// and no orientation filtering beyond what the MBR geometry implies.
func (t *Tree) Search(q geo.Rect) []Group {
	return t.tree.SearchAll(toRect(q))
}

// Groups returns the number of indexed groups.
func (t *Tree) Groups() int { return t.tree.Len() }

// Frames returns the number of ingested frames.
func (t *Tree) Frames() int { return t.frames }

// groupRect is the tree's bounds function: a group is indexed under its
// scene MBR.
func groupRect(g *Group) rtree.Rect { return toRect(g.MBR) }

// toRect pins the unused time dimension to zero.
func toRect(r geo.Rect) rtree.Rect {
	return rtree.Rect{
		Min: [rtree.Dims]float64{r.MinLng, r.MinLat, 0},
		Max: [rtree.Dims]float64{r.MaxLng, r.MaxLat, 0},
	}
}
