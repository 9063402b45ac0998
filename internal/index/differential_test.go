package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/rtree"
	"fovr/internal/segment"
)

// The differential suite drives every index implementation through the
// same randomized operation sequence and demands bit-identical behaviour:
// same accept/reject decision on every mutation, same result set AND the
// same rank order on every query. Rank order is computed here with the
// ranker's exact sort key (distance to the query center, id as the tie
// break), so a pass certifies that the tree answers exactly like the
// linear oracle.

// diffEntry scatters segments across ~5 km and a day like randEntry, but
// with a wider duration distribution: mostly segments under a minute, a
// tail of ones up to ~11 minutes, and occasional zero-length and
// pre-epoch segments. One entry in six stands on one of four shared
// spots.
func diffEntry(rng *rand.Rand, id uint64) Entry {
	p := geo.Offset(city, rng.Float64()*360, rng.Float64()*5000)
	if rng.Intn(6) == 0 {
		// Co-located cameras (wire fixed-point rounding makes them real):
		// equal distances, so every implementation must rank them by id.
		p = geo.Offset(city, float64(rng.Intn(4))*90, 1000)
	}
	start := int64(rng.Intn(86_400_000))
	if rng.Intn(20) == 0 {
		start = -start // pre-epoch capture
	}
	var dur int64
	switch rng.Intn(10) {
	case 0:
		dur = 0 // single-frame segment
	case 1, 2:
		dur = 60_000 + int64(rng.Intn(600_000)) // long tail
	default:
		dur = int64(rng.Intn(60_000))
	}
	return Entry{
		ID:       id,
		Provider: fmt.Sprintf("client-%d", id%17),
		Rep: segment.Representative{
			FoV:         fovAt(p, rng.Float64()*360),
			StartMillis: start,
			EndMillis:   start + dur,
		},
	}
}

// rankSearch orders a Search result exactly like the query pipeline:
// ascending distance to the center, ids breaking ties.
func rankSearch(entries []Entry, center geo.Point) []Entry {
	out := make([]Entry, len(entries))
	copy(out, entries)
	sort.Slice(out, func(i, j int) bool {
		di, dj := geo.Distance(out[i].Rep.FoV.P, center), geo.Distance(out[j].Rep.FoV.P, center)
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func describeRanked(entries []Entry, center geo.Point) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%d@%.9fm", e.ID, geo.Distance(e.Rep.FoV.P, center))
	}
	return out
}

func describeNeighbors(ns []Neighbor) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%d@%.9fm", n.Entry.ID, n.DistanceMeters)
	}
	return out
}

func TestDifferentialIndexEquivalence(t *testing.T) {
	type impl struct {
		name string
		idx  ServerIndex
	}
	impls := []impl{
		{"rtree", NewRTree()},
		{"linear", oracleIndex{NewLinear()}},
	}
	rng := rand.New(rand.NewSource(77))
	var live []uint64 // ids currently stored, kept in insert order
	stored := map[uint64]Entry{}
	nextID := uint64(1)

	removeLive := func(i int) uint64 {
		id := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return id
	}

	checkSearch := func(step int) {
		center := geo.Offset(city, rng.Float64()*360, rng.Float64()*6000)
		rect := geo.RectAround(center, 100+rng.Float64()*1500)
		ts := int64(rng.Intn(86_400_000)) - 43_200_000
		te := ts + int64(rng.Intn(3_600_000))
		var want []string
		for _, im := range impls {
			got := describeRanked(rankSearch(im.idx.Search(rect, ts, te), center), center)
			if im.name == impls[0].name {
				want = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: ranked Search diverges:\n%s: %v\n%s: %v",
					step, impls[0].name, want, im.name, got)
			}
		}
	}

	checkNearest := func(step int) {
		center := geo.Offset(city, rng.Float64()*360, rng.Float64()*6000)
		ts := int64(rng.Intn(86_400_000)) - 43_200_000
		te := ts + int64(rng.Intn(7_200_000))
		k := 1 + rng.Intn(10)
		maxDist := 0.0
		if rng.Intn(2) == 0 {
			maxDist = 200 + rng.Float64()*2000
		}
		var keep func(*Entry) bool
		if rng.Intn(3) == 0 {
			keep = func(e *Entry) bool { return e.ID%3 != 0 }
		}
		var want []string
		for _, im := range impls {
			got := describeNeighbors(im.idx.Nearest(center, ts, te, k, maxDist, keep))
			if im.name == impls[0].name {
				want = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: Nearest(k=%d, maxDist=%.0f) diverges:\n%s: %v\n%s: %v",
					step, k, maxDist, impls[0].name, want, im.name, got)
			}
		}
	}

	const steps = 2500
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 30: // single insert
			e := diffEntry(rng, nextID)
			nextID++
			for _, im := range impls {
				if err := im.idx.Insert(e); err != nil {
					t.Fatalf("step %d: %s rejects insert: %v", step, im.name, err)
				}
			}
			live = append(live, e.ID)
			stored[e.ID] = e
		case op < 40: // batch insert
			batch := make([]Entry, 1+rng.Intn(40))
			for i := range batch {
				batch[i] = diffEntry(rng, nextID)
				nextID++
			}
			for _, im := range impls {
				if err := im.idx.InsertBatch(batch); err != nil {
					t.Fatalf("step %d: %s rejects batch: %v", step, im.name, err)
				}
			}
			for _, e := range batch {
				live = append(live, e.ID)
				stored[e.ID] = e
			}
		case op < 45: // duplicate insert: everyone must refuse
			if len(live) == 0 {
				continue
			}
			e := diffEntry(rng, live[rng.Intn(len(live))])
			for _, im := range impls {
				if err := im.idx.Insert(e); err == nil {
					t.Fatalf("step %d: %s accepts duplicate id %d", step, im.name, e.ID)
				}
			}
		case op < 50: // poisoned batch: all-or-nothing everywhere
			if len(live) == 0 {
				continue
			}
			batch := make([]Entry, 3+rng.Intn(8))
			for i := range batch {
				batch[i] = diffEntry(rng, nextID)
				nextID++
			}
			batch[len(batch)-1].ID = live[rng.Intn(len(live))]
			for _, im := range impls {
				if err := im.idx.InsertBatch(batch); err == nil {
					t.Fatalf("step %d: %s accepts poisoned batch", step, im.name)
				}
			}
		case op < 65: // remove one to three live entries in one batch, sometimes beside an absent one
			if len(live) == 0 {
				continue
			}
			var batch []Entry
			for k := 1 + rng.Intn(3); k > 0 && len(live) > 0; k-- {
				id := removeLive(rng.Intn(len(live)))
				batch = append(batch, stored[id])
				delete(stored, id)
			}
			want := len(batch)
			if rng.Intn(4) == 0 {
				batch = append(batch, diffEntry(rng, nextID+uint64(rng.Intn(1000))+1))
			}
			for _, im := range impls {
				if n := im.idx.RemoveBatch(batch); n != want {
					t.Fatalf("step %d: %s removed %d of %d live entries", step, im.name, n, want)
				}
			}
		case op < 70: // remove an absent id
			e := diffEntry(rng, nextID+uint64(rng.Intn(1000))+1)
			for _, im := range impls {
				if im.idx.RemoveBatch([]Entry{e}) != 0 {
					t.Fatalf("step %d: %s removes absent id %d", step, im.name, e.ID)
				}
			}
		case op < 90:
			checkSearch(step)
		default:
			checkNearest(step)
		}
		for _, im := range impls {
			if im.idx.Len() != len(live) {
				t.Fatalf("step %d: %s Len = %d, want %d", step, im.name, im.idx.Len(), len(live))
			}
		}
	}
	if err := impls[0].idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Final full-extent sweep: the complete stores must be identical.
	rect := geo.RectAround(city, 20_000)
	var want []uint64
	for _, im := range impls {
		got := ids(im.idx.Search(rect, -1<<40, 1<<40))
		if len(got) != len(live) {
			t.Fatalf("%s final sweep returned %d of %d entries", im.name, len(got), len(live))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s final sweep diverges at %d", im.name, i)
			}
		}
	}
}

// oracleIndex adapts Linear to ServerIndex for the differential driver.
// The diagnostics the oracle has no real notion of return zero values.
type oracleIndex struct{ *Linear }

func (o oracleIndex) Height() int            { return 0 }
func (o oracleIndex) NodeCount() int         { return 0 }
func (o oracleIndex) TreeStats() rtree.Stats { return rtree.Stats{} }
func (o oracleIndex) CheckInvariants() error { return nil }
