package index_test

import (
	"bytes"
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
	"fovr/internal/segment"
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
// same answers for less node work and more leaf entries (M = 16, point,
// before the walk was bounded by the reach: nodes p50 15, p99 85, total
// 37 315; leaf entries 55, 502, 154 529). A corpus whose uploads all
// declare the deployment camera, in an index of the deployment's base,
// does the point shape's work exactly; one 5-km device costs each shape
// a few leaf entries per question near it.
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
	const hour = 3_600_000
	for _, sh := range []workShape{
		{"point", 30, hour, 20, [3]int64{11, 53, 26483}, [3]int64{96, 701, 259394}, "f38604ca86fafbca"},
		{"scan", 300, 24 * hour, 20, [3]int64{19, 69, 43476}, [3]int64{260, 1124, 636990}, "37db92b9d29976f8"},
		{"wide", 30, 12 * hour, 20, [3]int64{15, 63, 36240}, [3]int64{181, 945, 474287}, "bee913a9bebc607e"},
		{"nearest", 0, hour, 10, [3]int64{10, 45, 23771}, [3]int64{81, 575, 213537}, "243f2a800248021a"},
		{"wide nearest", 0, 12 * hour, 10, [3]int64{13, 72, 33823}, [3]int64{154, 1134, 428098}, "3356111496153c0a"},
	} {
		t.Run(sh.name, func(t *testing.T) {
			sh.pin(t, cfg, x, lin, questions, func(i int, _ []query.Ranked) bool { return i < oracleQuestions })
		})
	}

	// The same uploads, each declaring the deployment camera, as real
	// clients do, into an index of the deployment's base, as a server
	// builds it: every excess is 0, so every slot keeps its point key and
	// the tree, its walk and its answers are the point row's.
	declared, err := index.BulkLoadRTree(100, 0, func(func(*index.Entry) error) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uploads {
		u = slices.Clone(u)
		for i := range u {
			u[i].Camera = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
		}
		if err := declared.InsertBatch(u); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("point, declared deployment camera", func(t *testing.T) {
		sh := workShape{"point", 30, hour, 20, [3]int64{11, 53, 26483}, [3]int64{96, 701, 259394}, "f38604ca86fafbca"}
		sh.pin(t, cfg, declared, lin, questions, func(i int, _ []query.Ranked) bool { return i < oracleQuestions })
	})

	// One device that sees 5 km, a 60-s segment at noon at the city
	// centre: its key is its position grown by 5 km (the index's base is
	// 0), so it adds the path to its leaf to the walk of the questions
	// near it in place and time, and no other. Every answer that holds
	// the device is held to Linear's too.
	wide := index.Entry{
		ID: uint64(lin.Len() + 1), Provider: "wide", Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 5000},
		Rep: segment.Representative{FoV: fov.FoV{P: workload.DefaultConfig.Center}, StartMillis: 12 * hour, EndMillis: 12*hour + 60_000},
	}
	if err := x.Insert(wide); err != nil {
		t.Fatal(err)
	}
	if err := lin.Insert(wide); err != nil {
		t.Fatal(err)
	}
	for _, sh := range []workShape{
		{"point, one 5-km device", 30, hour, 20, [3]int64{12, 55, 29003}, [3]int64{98, 701, 264338}, "0f4a2668fa4f93ac"},
		{"scan, one 5-km device", 300, 24 * hour, 20, [3]int64{21, 72, 48702}, [3]int64{277, 1147, 670194}, "9b6cc5b680e60d41"},
		{"wide, one 5-km device", 30, 12 * hour, 20, [3]int64{17, 66, 41406}, [3]int64{197, 961, 506287}, "789696d8402846db"},
		{"nearest, one 5-km device", 0, hour, 10, [3]int64{11, 46, 26301}, [3]int64{84, 588, 218481}, "108f167a2012d86e"},
		{"wide nearest, one 5-km device", 0, 12 * hour, 10, [3]int64{16, 75, 38995}, [3]int64{170, 1150, 460098}, "c04386f763fe220f"},
	} {
		t.Run(sh.name, func(t *testing.T) {
			sh.pin(t, cfg, x, lin, questions, func(i int, got []query.Ranked) bool {
				return i < oracleQuestions || slices.ContainsFunc(got, func(r query.Ranked) bool { return r.Entry.ID == wide.ID })
			})
		})
	}
}

// workShape is one read shape of TestServingTreeWorkPinned with its
// pins: the nodes visited and leaf entries handed over per question
// (p50, p99, total over the questions) and the digest of the answers.
type workShape struct {
	name         string
	radius       float64
	window       int64
	n            int
	nodes, leafs [3]int64
	digest       string
}

// pin asks the shape's questions of x through the traced query walk,
// camera 30°/100 m, and holds its work and answers to the pins, and
// the answers oracle picks (by question and answer) to lin's.
func (sh workShape) pin(t *testing.T, cfg workload.Config, x, lin index.Index, questions int, oracle func(int, []query.Ranked) bool) {
	opts := query.Options{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, MaxResults: sh.n}
	qs := workload.Queries(cfg, questions, sh.radius, sh.window)
	var nodes, leafs []int64
	all := sha256.New()
	short, checked := 0, 0
	for i, q := range qs {
		tr := obs.NewQueryTrace("rtree")
		got, err := query.SearchCtx(obs.WithTrace(context.Background(), tr), x, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < sh.n {
			short++
		}
		nodes, leafs = append(nodes, tr.NodesVisited), append(leafs, tr.LeafEntriesScanned)
		all.Write(answerIDs(got))
		if oracle(i, got) {
			checked++
			want, err := query.Search(lin, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(answerIDs(got), answerIDs(want)) {
				t.Errorf("question %d answers %x over the tree, %x over Linear", i, answerIDs(got), answerIDs(want))
			}
		}
	}
	gotNodes, gotLeafs := work(nodes), work(leafs)
	digest := hex.EncodeToString(all.Sum(nil))[:16]
	t.Logf("nodes p50 %d p99 %d mean %.2f; leaf entries p50 %d p99 %d mean %.2f; %d of %d short of N; answers %s, %d held to Linear's",
		gotNodes[0], gotNodes[1], float64(gotNodes[2])/float64(questions),
		gotLeafs[0], gotLeafs[1], float64(gotLeafs[2])/float64(questions), short, questions, digest, checked)
	if gotNodes != sh.nodes || gotLeafs != sh.leafs || digest != sh.digest {
		t.Errorf("nodes %v, leaf entries %v, answers %s; pinned %v, %v, %s",
			gotNodes, gotLeafs, digest, sh.nodes, sh.leafs, sh.digest)
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
