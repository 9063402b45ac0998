// Package cluster composes window/spatial-hash placement with the
// per-partition replica sets internal/replica ships into a multi-node
// topology: a partition map assigning placement keys to leader
// processes, and a stateless scatter-gather router (router.go) serving
// the same HTTP surface as a single node.
//
// Placement keys are index.WindowKey for ordinary segments and
// index.SpatialCell for over-long ones (one implementation, shared with
// the per-node ownership guards). A query fans out to every partition
// that could hold a segment intersecting its time window, and each
// partition answers from its own R-tree; merging the ranked partition
// answers by (distance, id) is what makes the router's results
// byte-identical to one big node.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"fovr/internal/client"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/segment"
)

// WindowRange is an inclusive range of time-window keys (the
// floor(startMillis/window) values of index.WindowKey).
type WindowRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// contains reports whether the range holds key.
func (r WindowRange) contains(key int64) bool { return r.From <= key && key <= r.To }

// intersects reports whether the range and [lo, hi] share a key.
func (r WindowRange) intersects(lo, hi int64) bool { return r.From <= hi && lo <= r.To }

// Partition is one key-owning node group: a writable leader plus its
// read replicas (each running the existing internal/replica set).
type Partition struct {
	// ID names the partition in health reports and errors, e.g. "p0".
	ID string `json:"id"`
	// Leader is the writable node's base URL.
	Leader string `json:"leader"`
	// Replicas are read-replica base URLs, hedge targets for queries.
	Replicas []string `json:"replicas,omitempty"`
	// Windows are the time-window key ranges this partition explicitly
	// owns. Keys matched by no partition's ranges fall back to
	// floor-modulo placement over all partitions.
	Windows []WindowRange `json:"windows,omitempty"`
	// SpatialCells are the spatial-hash cells (over-long segments) this
	// partition owns. Cells assigned to no partition default to the
	// first partition.
	SpatialCells []int `json:"spatialCells,omitempty"`
}

// Endpoints returns the partition's nodes in hedging order: leader
// first, then replicas.
func (p *Partition) Endpoints() []string {
	out := make([]string, 0, 1+len(p.Replicas))
	out = append(out, p.Leader)
	out = append(out, p.Replicas...)
	return out
}

// Topology is the cluster's partition map, loaded from a JSON file and
// served verbatim on the router's /cluster/topology.
type Topology struct {
	// WindowMillis is the placement window width. Zero selects
	// index.DefaultShardWindowMillis (1 h). Routing and the per-node
	// ownership guards read the same topology, so they agree on it.
	WindowMillis int64 `json:"windowMillis,omitempty"`
	// SpatialShards sizes the spatial-hash cell space over-long
	// segments route by. Zero selects 8; negative
	// disables over-long segments cluster-wide — ingest rejects them —
	// which lets queries skip the spatial fan-out entirely.
	SpatialShards int `json:"spatialShards,omitempty"`
	// Partitions lists the key owners. Order matters: it defines the
	// floor-modulo fallback placement and the id-base assignment, so
	// reordering partitions re-keys the cluster.
	Partitions []Partition `json:"partitions"`

	// covered is every partition's explicit window ranges in ascending
	// order, kept by Validate for OwnersForQuery.
	covered []WindowRange
}

// Load reads and validates a topology file.
func Load(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: topology: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a topology document, node URLs included:
// a loaded map names real nodes, so an endpoint that is not a plain
// "http://host:port" fails here, at start-up, not on the first request
// routed to it. (Validate alone leaves URLs be: in-process callers fill
// them in once their listeners exist.)
func Parse(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("cluster: topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for i := range t.Partitions {
		for _, ep := range t.Partitions[i].Endpoints() {
			if _, err := client.ParseEndpoint(ep); err != nil {
				return nil, fmt.Errorf("cluster: topology: partition %q: %w", t.Partitions[i].ID, err)
			}
		}
	}
	return &t, nil
}

// Validate checks structural invariants and fills defaults
// (WindowMillis, SpatialShards).
func (t *Topology) Validate() error {
	if t.WindowMillis == 0 {
		t.WindowMillis = index.DefaultShardWindowMillis
	}
	if t.WindowMillis < 0 {
		return fmt.Errorf("cluster: topology: windowMillis %d must be positive", t.WindowMillis)
	}
	if t.SpatialShards == 0 {
		t.SpatialShards = 8
	}
	if len(t.Partitions) == 0 {
		return fmt.Errorf("cluster: topology: no partitions")
	}
	ids := make(map[string]bool, len(t.Partitions))
	type ownedRange struct {
		WindowRange
		id string
	}
	var ranges []ownedRange
	cellOwner := make(map[int]string)
	for i := range t.Partitions {
		p := &t.Partitions[i]
		if p.ID == "" {
			return fmt.Errorf("cluster: topology: partition %d has no id", i)
		}
		if ids[p.ID] {
			return fmt.Errorf("cluster: topology: duplicate partition id %q", p.ID)
		}
		ids[p.ID] = true
		if p.Leader == "" {
			return fmt.Errorf("cluster: topology: partition %q has no leader URL", p.ID)
		}
		for _, r := range p.Windows {
			if r.From > r.To {
				return fmt.Errorf("cluster: topology: partition %q window range [%d, %d] inverted", p.ID, r.From, r.To)
			}
			ranges = append(ranges, ownedRange{r, p.ID})
		}
		for _, c := range p.SpatialCells {
			if t.SpatialShards < 0 {
				return fmt.Errorf("cluster: topology: partition %q assigns spatial cells but spatialShards is disabled", p.ID)
			}
			if c < 0 || c >= t.SpatialShards {
				return fmt.Errorf("cluster: topology: partition %q spatial cell %d out of range [0, %d)", p.ID, c, t.SpatialShards)
			}
			if owner, dup := cellOwner[c]; dup {
				return fmt.Errorf("cluster: topology: spatial cell %d owned by both %q and %q", c, owner, p.ID)
			}
			cellOwner[c] = p.ID
		}
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].From < ranges[j].From })
	t.covered = t.covered[:0]
	for i := range ranges {
		if i > 0 && ranges[i].From <= ranges[i-1].To {
			return fmt.Errorf("cluster: topology: window ranges overlap: %q [%d, %d] and %q [%d, %d]",
				ranges[i-1].id, ranges[i-1].From, ranges[i-1].To,
				ranges[i].id, ranges[i].From, ranges[i].To)
		}
		t.covered = append(t.covered, ranges[i].WindowRange)
	}
	return nil
}

// Partition returns the partition named id, or nil.
func (t *Topology) Partition(id string) *Partition {
	for i := range t.Partitions {
		if t.Partitions[i].ID == id {
			return &t.Partitions[i]
		}
	}
	return nil
}

// IDBase returns the segment-id base the named partition's leader must
// run with (server.Config.IDBase): partition i assigns ids i·IDSpan+1
// to (i+1)·IDSpan (index.IDSpan), so ids stay globally unique without
// coordination, and a partition refuses an upload past its range.
func (t *Topology) IDBase(id string) (uint64, error) {
	for i := range t.Partitions {
		if t.Partitions[i].ID == id {
			return uint64(i) * index.IDSpan, nil
		}
	}
	return 0, fmt.Errorf("cluster: topology: unknown partition %q", id)
}

// floorMod is the non-negative remainder, the fallback placement for
// keys outside every explicit window range.
func floorMod(key int64, n int) int {
	m := key % int64(n)
	if m < 0 {
		m += int64(n)
	}
	return int(m)
}

// OwnerOfKey returns the partition owning a time-window key: the one
// whose explicit ranges contain it, else floor-modulo placement.
func (t *Topology) OwnerOfKey(key int64) *Partition {
	for i := range t.Partitions {
		for _, r := range t.Partitions[i].Windows {
			if r.contains(key) {
				return &t.Partitions[i]
			}
		}
	}
	return &t.Partitions[floorMod(key, len(t.Partitions))]
}

// SpatialOwner returns the partition owning a spatial cell: the one
// that lists it, else the first partition.
func (t *Topology) SpatialOwner(cell int) *Partition {
	for i := range t.Partitions {
		for _, c := range t.Partitions[i].SpatialCells {
			if c == cell {
				return &t.Partitions[i]
			}
		}
	}
	return &t.Partitions[0]
}

// OwnerOfRep returns the partition a representative must be ingested
// on: the spatial-cell owner for over-long segments (duration >
// window), the window-key owner otherwise. Over-long segments error
// when the topology disables spatial shards.
func (t *Topology) OwnerOfRep(rep segment.Representative) (*Partition, error) {
	if index.OverLong(rep.StartMillis, rep.EndMillis, t.WindowMillis) {
		if t.SpatialShards < 0 {
			return nil, fmt.Errorf("cluster: segment [%d, %d] longer than window %dms but topology disables spatial shards",
				rep.StartMillis, rep.EndMillis, t.WindowMillis)
		}
		return t.SpatialOwner(index.SpatialCell(rep.FoV.P, t.SpatialShards)), nil
	}
	return t.OwnerOfKey(index.WindowKey(rep.StartMillis, t.WindowMillis)), nil
}

// OwnsRep returns the ownership guard for one partition's leader
// (server.Config.OwnsRep): nil error exactly when this topology routes
// the representative to the named partition.
func (t *Topology) OwnsRep(id string) func(rep segment.Representative) error {
	return func(rep segment.Representative) error {
		owner, err := t.OwnerOfRep(rep)
		if err != nil {
			return err
		}
		if owner.ID != id {
			return fmt.Errorf("owned by partition %q, not %q", owner.ID, id)
		}
		return nil
	}
}

// OwnersForQuery returns, in topology order, every partition a query
// over [startMillis, endMillis] must visit: the owners of the window
// keys in the query's fan-out range (index.WindowKeyRange's
// floor(start/W)-1 .. floor(end/W) rule) plus — since an over-long
// segment may intersect any window — all spatial-cell owners, unless the
// topology disables spatial shards. The topology must have been
// validated.
func (t *Topology) OwnersForQuery(startMillis, endMillis int64) []*Partition {
	lo, hi := index.WindowKeyRange(startMillis, endMillis, t.WindowMillis)
	n := len(t.Partitions)
	owns := make([]bool, n)

	// Explicit ranges: interval intersection, span-size independent.
	for i := range t.Partitions {
		for _, r := range t.Partitions[i].Windows {
			if r.intersects(lo, hi) {
				owns[i] = true
				break
			}
		}
	}
	// Modulo fallback: only keys in [lo, hi] uncovered by every
	// explicit range land here. Walk the uncovered gaps; a gap spanning
	// >= len(Partitions) keys hits every residue, smaller gaps
	// enumerate.
	addModRange := func(gapLo, gapHi int64) {
		if gapLo > gapHi {
			return
		}
		if gapHi-gapLo+1 >= int64(n) || gapHi-gapLo < 0 { // width overflow => huge
			for i := range owns {
				owns[i] = true
			}
			return
		}
		for k := gapLo; ; k++ {
			owns[floorMod(k, n)] = true
			if k == gapHi {
				break
			}
		}
	}
	next := lo
	for _, r := range t.covered {
		if r.To < next {
			continue
		}
		if r.From > hi {
			break
		}
		if r.From > next {
			addModRange(next, r.From-1)
		}
		if r.To >= next {
			next = r.To + 1
		}
		if next > hi {
			break
		}
	}
	if next <= hi {
		addModRange(next, hi)
	}

	// Spatial fallback: every query visits it.
	if t.SpatialShards > 0 {
		assigned := 0
		for i := range t.Partitions {
			if cells := len(t.Partitions[i].SpatialCells); cells > 0 {
				owns[i] = true
				assigned += cells
			}
		}
		// Unassigned cells default to the first partition; any cell
		// space not fully covered keeps it in the set.
		if assigned < t.SpatialShards {
			owns[0] = true
		}
	}

	out := make([]*Partition, 0, n)
	for i := range t.Partitions {
		if owns[i] {
			out = append(out, &t.Partitions[i])
		}
	}
	return out
}

// SpatialCellFor returns the cluster-level spatial cell a point hashes
// to, for callers that need to display or test placement; -1 when the
// topology disables spatial shards.
func (t *Topology) SpatialCellFor(p geo.Point) int {
	if t.SpatialShards <= 0 {
		return -1
	}
	return index.SpatialCell(p, t.SpatialShards)
}
