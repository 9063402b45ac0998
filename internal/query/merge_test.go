package query

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fovr/internal/index"
)

// concatSortMerge is the merge MergeRanked replaced: concatenate, sort
// by (distance, id), truncate. Kept as the reference.
func concatSortMerge(lists [][]Ranked, max int) []Ranked {
	var out []Ranked
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return rankedBefore(&out[i], &out[j]) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// TestMergeRankedMatchesConcatSort: on tie-heavy sorted lists (a few
// distinct distances, ids unique across lists as partition id spaces
// are) the k-way merge returns exactly what concatenate-and-sort did,
// for every cut.
func TestMergeRankedMatchesConcatSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 500; round++ {
		lists := make([][]Ranked, rng.Intn(11)) // past the merge's 8 inline cursors
		nextID := uint64(1)
		for i := range lists {
			l := make([]Ranked, rng.Intn(12))
			for j := range l {
				l[j] = Ranked{
					Entry:          index.Entry{ID: nextID + uint64(rng.Intn(3)), Provider: "p"},
					DistanceMeters: float64(rng.Intn(4)), // ties within and across lists
				}
				nextID = l[j].Entry.ID + 1
			}
			sort.Slice(l, func(a, b int) bool { return rankedBefore(&l[a], &l[b]) })
			lists[i] = l
		}
		for _, max := range []int{0, 1, 3, 20, 1000} {
			want := concatSortMerge(lists, max)
			got := MergeRanked(nil, lists, max)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("round %d max %d:\n got %+v\nwant %+v", round, max, got, want)
			}
		}
	}
	// dst is appended to, and the inputs are left as they were.
	a := []Ranked{{DistanceMeters: 1}, {DistanceMeters: 3}}
	b := []Ranked{{DistanceMeters: 2}}
	got := MergeRanked([]Ranked{{DistanceMeters: 9}}, [][]Ranked{a, b}, 2)
	if len(got) != 3 || got[0].DistanceMeters != 9 || got[1].DistanceMeters != 1 || got[2].DistanceMeters != 2 || len(a) != 2 || len(b) != 1 {
		t.Fatalf("append form: got %+v, inputs %v %v", got, a, b)
	}
}
