package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	keys := make([]strKey, len(items))
	for i := range items {
		r := bounds(&items[i])
		if !r.Valid() {
			return nil, fmt.Errorf("rtree: invalid rect %v in bulk load", r)
		}
		keys[i] = newSTRKey(&r, i)
	}
	if len(items) == 0 {
		return t, nil
	}

	max := t.opts.MaxEntries
	nodes := make([]*node[T], 0, (len(keys)+max-1)/max)
	for _, run := range packLevel(keys, max) {
		n := newLeaf[T](0)
		leaf := make([]T, len(run))
		for j, k := range run {
			leaf[j] = items[k.at]
		}
		n.setItems(leaf)
		nodes = append(nodes, n)
	}
	height := 1
	// A level above the leaves sorts its nodes' MBRs, which also become
	// their parents' kid rectangles.
	rects := make([]Rect, 0, len(nodes))
	for len(nodes) > 1 {
		keys, rects = keys[:len(nodes)], rects[:len(nodes)]
		for i, n := range nodes {
			rects[i] = mbr(n, bounds)
			keys[i] = newSTRKey(&rects[i], i)
		}
		parents := make([]*node[T], 0, (len(keys)+max-1)/max)
		for _, run := range packLevel(keys, max) {
			n := &node[T]{}
			kids := make([]kid[T], len(run))
			for j, k := range run {
				kids[j] = kid[T]{rects[k.at], nodes[k.at]}
			}
			n.setKids(kids)
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

// strKey is one slot of a level being packed, in 32 B: its rectangle's
// Min+Max per dimension (the sort keys) and its position in the level's
// input (an item, or a node of the level below).
type strKey struct {
	c  [Dims]float64
	at int
}

func newSTRKey(r *Rect, at int) strKey {
	k := strKey{at: at}
	for d := range Dims {
		k.c[d] = r.Min[d] + r.Max[d]
	}
	return k
}

// packLevel orders one level's slots with STR's recursive slab sort over
// the Dims center coordinates and cuts them into runs of capacity max,
// one run per node.
func packLevel(keys []strKey, max int) [][]strKey {
	strSort(keys, max, 0)
	runs := make([][]strKey, 0, (len(keys)+max-1)/max)
	for start := 0; start < len(keys); start += max {
		runs = append(runs, keys[start:min(start+max, len(keys))])
	}
	return runs
}

// strSort recursively orders keys so that consecutive runs of max
// slots are spatially coherent: sort by dimension d, cut into slabs
// sized for the remaining dimensions, recurse into each slab with d+1.
func strSort(keys []strKey, max, d int) {
	slices.SortFunc(keys, func(a, b strKey) int { return cmp.Compare(a.c[d], b.c[d]) })
	if d >= Dims-1 {
		return
	}
	nLeaves := float64(len(keys)) / float64(max)
	// Number of slabs along this dimension: ceil(nLeaves^(1/k)) where k is
	// the number of remaining dimensions.
	k := Dims - d
	slabs := int(math.Ceil(math.Pow(nLeaves, 1/float64(k))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(keys) + slabs - 1) / slabs
	// Round the slab size up to a multiple of max so leaves don't straddle
	// slab boundaries.
	if rem := slabSize % max; rem != 0 {
		slabSize += max - rem
	}
	for start := 0; start < len(keys); start += slabSize {
		strSort(keys[start:min(start+slabSize, len(keys))], max, d+1)
	}
}
