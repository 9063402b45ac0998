package index

import (
	"fmt"
	"math"
	"sync"

	"fovr/internal/geo"
)

// Grid is the third classic indexing alternative alongside the R-tree and
// the linear scan: a uniform spatial hash grid. Each entry is bucketed by
// the cell containing its representative position; a query scans the
// cells its rectangle covers. Grids are simpler than R-trees and fast on
// uniform data, but their cell size is a hard tuning knob — too coarse
// and queries over-scan, too fine and memory fragments — which is the
// trade the index ablation quantifies.
type Grid struct {
	cellDeg float64

	mu    sync.RWMutex
	cells map[gridKey][]Entry
	byID  map[uint64]gridKey
	radii radii
}

type gridKey struct{ x, y int32 }

// NewGrid creates a grid index with the given cell size in meters
// (converted to degrees at the equatorial scale; adequate for city-scale
// extents).
func NewGrid(cellMeters float64) (*Grid, error) {
	if !(cellMeters > 0) || math.IsInf(cellMeters, 0) {
		return nil, fmt.Errorf("index: grid cell %v must be positive and finite", cellMeters)
	}
	return &Grid{
		cellDeg: cellMeters / geo.MetersPerDegree,
		cells:   make(map[gridKey][]Entry),
		byID:    make(map[uint64]gridKey),
	}, nil
}

func (g *Grid) key(p geo.Point) gridKey {
	return gridKey{
		x: int32(math.Floor(p.Lng / g.cellDeg)),
		y: int32(math.Floor(p.Lat / g.cellDeg)),
	}
}

// Insert implements Index.
func (g *Grid) Insert(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byID[e.ID]; dup {
		return fmt.Errorf("index: duplicate id %d", e.ID)
	}
	e = e.OnGrid()
	g.radii.add(e.Camera.RadiusMeters, entryRect(&e))
	k := g.key(e.Rep.FoV.P)
	g.cells[k] = append(g.cells[k], e)
	g.byID[e.ID] = k
	return nil
}

// Remove implements Index.
func (g *Grid) Remove(id uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	k, ok := g.byID[id]
	if !ok {
		return false
	}
	cell := g.cells[k]
	for i, e := range cell {
		if e.ID == id {
			g.radii.remove(e.Camera.RadiusMeters)
			cell[i] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = cell
	}
	delete(g.byID, id)
	return true
}

// Search implements Index.
func (g *Grid) Search(r geo.Rect, startMillis, endMillis int64) []Entry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out, _, _ := g.searchCounted([]geo.Rect{r}, startMillis, endMillis)
	return out
}

// Visit implements Index over a private copy of the hits in the boxes
// that hold the reach (cells are mutated in place), ignoring the bound:
// the reach is radius plus the widest radius of view of any entry that
// may cover the disc (widest, from the grid's bands), occupied cells
// visited count as nodes, entries tested as scanned.
func (g *Grid) Visit(center geo.Point, radius, deployRadius float64, startMillis, endMillis int64, visit func(*Entry) float64) (nodes, scanned int64) {
	g.mu.RLock()
	boxes, n := reachBoxes(center, radius+widest(g.radii.bands, center, radius, deployRadius, startMillis, endMillis))
	out, cells, scanned := g.searchCounted(boxes[:n], startMillis, endMillis)
	g.mu.RUnlock()
	for i := range out {
		visit(&out[i])
	}
	return cells, scanned
}

// searchCounted collects the entries of the window in the boxes (read
// lock held).
func (g *Grid) searchCounted(boxes []geo.Rect, startMillis, endMillis int64) (out []Entry, cellsVisited, entriesScanned int64) {
	for _, r := range boxes {
		x0 := int32(math.Floor(r.MinLng / g.cellDeg))
		x1 := int32(math.Floor(r.MaxLng / g.cellDeg))
		y0 := int32(math.Floor(r.MinLat / g.cellDeg))
		y1 := int32(math.Floor(r.MaxLat / g.cellDeg))
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				cell := g.cells[gridKey{x, y}]
				if len(cell) == 0 {
					continue
				}
				cellsVisited++
				entriesScanned += int64(len(cell))
				for _, e := range cell {
					if e.Rep.EndMillis < startMillis || e.Rep.StartMillis > endMillis {
						continue
					}
					if !r.Contains(e.Rep.FoV.P) {
						continue
					}
					out = append(out, e)
				}
			}
		}
	}
	return out, cellsVisited, entriesScanned
}

// Len implements Index.
func (g *Grid) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.byID)
}

// CellCount returns the number of occupied cells (diagnostics).
func (g *Grid) CellCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.cells)
}
