package index_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/workload"
)

// TestServingTreeWorkPinned pins, exactly, the work the serving tree does
// per question on the end-to-end benchmark's corpus: 200 000 hotspot
// entries at seed 1, loaded as the benchmark uploads them (per provider,
// 20 an upload, remainders last), into an index at the default M. For
// each of the benchmark's five read shapes — point (30 m, 1 h), scan
// (300 m, 24 h), wide (30 m, 12 h), nearest (k = 10, 1 h) and wide
// nearest (k = 10, 12 h), top 20 for the three queries, camera 30°/100 m
// — 2 000 questions are asked through the traced query walk, and the
// nodes visited and leaf entries handed over per question (median,
// 99th percentile and total) and a digest of the answer ids in rank
// order are pinned. A change to the tree's shape, the walk's pruning or
// the ranking moves a pin; the answers of the first questions of each
// shape are also held to the Linear oracle's. The answer digests are
// those of the tree at M = 16 as well: nodes twice as wide give the
// same answers for less node work and more leaf entries (M = 16, point:
// nodes p50 15, p99 85, total 37 315; leaf entries 55, 502, 154 529).
func TestServingTreeWorkPinned(t *testing.T) {
	const questions, oracleQuestions = 2000, 60
	cfg := workload.Config{Seed: 1, Distribution: workload.Hotspot}
	uploads := benchUploads(workload.Entries(cfg, 200_000))
	x, lin := index.NewRTree(), index.NewLinear()
	for _, u := range uploads {
		if err := x.InsertBatch(u); err != nil {
			t.Fatal(err)
		}
		if err := lin.InsertBatch(u); err != nil {
			t.Fatal(err)
		}
	}
	cam := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
	const hour = 3_600_000
	for _, sh := range []struct {
		name         string
		radius       float64
		window       int64
		n            int
		nodes, leafs [3]int64 // p50, p99, total over the questions
		digest       string
	}{
		{"point", 30, hour, 20, [3]int64{11, 56, 27020}, [3]int64{98, 740, 269896}, "9f8e720604e2981f"},
		{"scan", 300, 24 * hour, 20, [3]int64{19, 69, 43648}, [3]int64{261, 1124, 640480}, "37db92b9d29976f8"},
		{"wide", 30, 12 * hour, 20, [3]int64{15, 65, 36840}, [3]int64{187, 970, 486601}, "5e4945c12800e77b"},
		{"nearest", 0, hour, 10, [3]int64{10, 46, 24098}, [3]int64{83, 595, 220214}, "243f2a800248021a"},
		{"wide nearest", 0, 12 * hour, 10, [3]int64{13, 72, 34245}, [3]int64{157, 1160, 437074}, "3356111496153c0a"},
	} {
		t.Run(sh.name, func(t *testing.T) {
			opts := query.Options{Camera: cam, MaxResults: sh.n}
			qs := workload.Queries(cfg, questions, sh.radius, sh.window)
			var nodes, leafs []int64
			all, first, oracle := sha256.New(), sha256.New(), sha256.New()
			for i, q := range qs {
				tr := obs.NewQueryTrace("rtree")
				got, err := query.SearchCtx(obs.WithTrace(context.Background(), tr), x, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				nodes, leafs = append(nodes, tr.NodesVisited), append(leafs, tr.LeafEntriesScanned)
				all.Write(answerIDs(got))
				if i < oracleQuestions {
					first.Write(answerIDs(got))
					want, err := query.Search(lin, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					oracle.Write(answerIDs(want))
				}
			}
			gotNodes, gotLeafs := work(nodes), work(leafs)
			digest := hex.EncodeToString(all.Sum(nil))[:16]
			t.Logf("nodes p50 %d p99 %d mean %.2f; leaf entries p50 %d p99 %d mean %.2f; answers %s",
				gotNodes[0], gotNodes[1], float64(gotNodes[2])/questions,
				gotLeafs[0], gotLeafs[1], float64(gotLeafs[2])/questions, digest)
			if gotNodes != sh.nodes || gotLeafs != sh.leafs || digest != sh.digest {
				t.Errorf("nodes %v, leaf entries %v, answers %s; pinned %v, %v, %s",
					gotNodes, gotLeafs, digest, sh.nodes, sh.leafs, sh.digest)
			}
			if a, b := hex.EncodeToString(first.Sum(nil)), hex.EncodeToString(oracle.Sum(nil)); a != b {
				t.Errorf("the first %d answers digest %s over the tree, %s over Linear", oracleQuestions, a, b)
			}
		})
	}
}

// benchUploads groups entries as the end-to-end benchmark does: per
// provider, in generation order, an upload of 20 each time a provider
// has 20 pending, and the remainders last in the order providers were
// first seen. Ids count from 1 in upload order.
func benchUploads(entries []index.Entry) [][]index.Entry {
	pending := map[string][]index.Entry{}
	var order []string
	var out [][]index.Entry
	for _, e := range entries {
		if _, ok := pending[e.Provider]; !ok {
			order = append(order, e.Provider)
		}
		if pending[e.Provider] = append(pending[e.Provider], e); len(pending[e.Provider]) == 20 {
			out = append(out, pending[e.Provider])
			pending[e.Provider] = []index.Entry{}
		}
	}
	for _, p := range order {
		if len(pending[p]) > 0 {
			out = append(out, pending[p])
		}
	}
	id := uint64(0)
	for _, u := range out {
		for i := range u {
			id++
			u[i].ID = id
		}
	}
	return out
}

// answerIDs is one answer's ids in rank order, ended by a 0 (ids start
// at 1).
func answerIDs(got []query.Ranked) []byte {
	var b []byte
	for _, r := range got {
		b = binary.LittleEndian.AppendUint64(b, r.Entry.ID)
	}
	return binary.LittleEndian.AppendUint64(b, 0)
}

// work returns the median, the 99th percentile and the total of
// per-question counts.
func work(counts []int64) [3]int64 {
	s := slices.Clone(counts)
	slices.Sort(s)
	var total int64
	for _, c := range s {
		total += c
	}
	return [3]int64{s[len(s)/2], s[len(s)*99/100], total}
}
