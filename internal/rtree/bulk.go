package rtree

import (
	"fmt"
	"math"
	"sort"
)

// BulkLoad builds a tree from items using the Sort-Tile-Recursive (STR)
// packing algorithm: items are sorted by the first dimension of their
// centers, cut into vertical slabs, each slab sorted by the next
// dimension, and so on, so that every leaf holds up to MaxEntries
// spatially adjacent items. STR produces near-100% node fill and tighter
// MBRs than repeated insertion, at the cost of being offline-only; the
// ablation benchmarks quantify the query-time difference. bounds is the
// tree's bounds function, as for New.
func BulkLoad[T any](opts Options, bounds func(*T) Rect, items []T) (*Tree[T], error) {
	t, err := New(opts, bounds)
	if err != nil {
		return nil, err
	}
	slots := make([]strSlot, len(items))
	for i := range items {
		r := bounds(&items[i])
		if !r.Valid() {
			return nil, fmt.Errorf("rtree: invalid rect %v in bulk load", r)
		}
		slots[i] = strSlot{rect: r, at: i}
	}
	if len(items) == 0 {
		return t, nil
	}

	max := t.opts.MaxEntries
	nodes := make([]*node[T], 0, (len(slots)+max-1)/max)
	for _, run := range packLevel(slots, max) {
		n := &node[T]{items: make([]T, len(run))}
		for j, s := range run {
			n.items[j] = items[s.at]
		}
		nodes = append(nodes, n)
	}
	height := 1
	for len(nodes) > 1 {
		slots = slots[:len(nodes)]
		for i, n := range nodes {
			slots[i] = strSlot{rect: mbr(n, bounds), at: i}
		}
		parents := make([]*node[T], 0, (len(slots)+max-1)/max)
		for _, run := range packLevel(slots, max) {
			n := &node[T]{kids: make([]kid[T], len(run))}
			for j, s := range run {
				n.kids[j] = kid[T]{s.rect, nodes[s.at]}
			}
			parents = append(parents, n)
		}
		nodes = parents
		height++
	}
	t.root = nodes[0]
	t.height = height
	t.size = len(items)
	t.packed = true
	t.Publish() // replace New's empty snapshot with the packed tree
	return t, nil
}

// strSlot is one slot of a level being packed: its rectangle and its
// position in the level's input (an item, or a node of the level below).
type strSlot struct {
	rect Rect
	at   int
}

// packLevel orders one level's slots with STR's recursive slab sort over
// the Dims center coordinates and cuts them into runs of capacity max,
// one run per node.
func packLevel(slots []strSlot, max int) [][]strSlot {
	strSort(slots, max, 0)
	runs := make([][]strSlot, 0, (len(slots)+max-1)/max)
	for start := 0; start < len(slots); start += max {
		runs = append(runs, slots[start:min(start+max, len(slots))])
	}
	return runs
}

// strSort recursively orders slots so that consecutive runs of max
// slots are spatially coherent: sort by dimension d, cut into slabs
// sized for the remaining dimensions, recurse into each slab with d+1.
func strSort(slots []strSlot, max, d int) {
	if d >= Dims-1 {
		sortByCenter(slots, d)
		return
	}
	sortByCenter(slots, d)
	nLeaves := float64(len(slots)) / float64(max)
	// Number of slabs along this dimension: ceil(nLeaves^(1/k)) where k is
	// the number of remaining dimensions.
	k := Dims - d
	slabs := int(math.Ceil(math.Pow(nLeaves, 1/float64(k))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(slots) + slabs - 1) / slabs
	// Round the slab size up to a multiple of max so leaves don't straddle
	// slab boundaries.
	if rem := slabSize % max; rem != 0 {
		slabSize += max - rem
	}
	for start := 0; start < len(slots); start += slabSize {
		end := start + slabSize
		if end > len(slots) {
			end = len(slots)
		}
		strSort(slots[start:end], max, d+1)
	}
}

func sortByCenter(slots []strSlot, d int) {
	sort.Slice(slots, func(i, j int) bool {
		return slots[i].rect.Min[d]+slots[i].rect.Max[d] <
			slots[j].rect.Min[d]+slots[j].rect.Max[d]
	})
}
