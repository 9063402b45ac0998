package query_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/workload"
)

// TestSearchNearestPinnedAnswers pins what SearchNearest answers on a
// seeded hotspot city: 1 000 questions at a one-hour and 1 000 at a
// twelve-hour window, k = 10, over the R-tree and over the linear scan.
// The digest covers the ids in rank order, not the distances, so it is
// the same on every architecture; a change to the ranking metric, the
// orientation filter or the walk's pruning that moves one id moves it.
func TestSearchNearestPinnedAnswers(t *testing.T) {
	cfg := workload.Config{Seed: 1, Distribution: workload.Hotspot, ExtentMeters: 1000}
	entries := workload.Entries(cfg, 20_000)
	tree, lin := index.NewRTree(), index.NewLinear()
	for _, x := range []index.BatchInserter{tree, lin} {
		if err := x.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
	}
	opts := query.Options{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, MaxResults: 20}
	for _, tc := range []struct {
		window int64
		want   string
	}{
		{3_600_000, "45e2e74c0fab3f3fe2cc7428f37ef27b0391dd57113ebd3a34251ff79dacbab0"},
		{12 * 3_600_000, "c4c6afde237359bdccd15fa026202c9f72a27d00c01f274d7671309d35036c5a"},
	} {
		qs := workload.Queries(cfg, 1000, 0, tc.window)
		for _, side := range []struct {
			name string
			ask  func(q query.Query) ([]query.Ranked, error)
		}{
			{"rtree", func(q query.Query) ([]query.Ranked, error) {
				return query.SearchNearest(tree, q.Center, q.StartMillis, q.EndMillis, 10, opts)
			}},
			{"linear", func(q query.Query) ([]query.Ranked, error) {
				return query.SearchNearest(lin, q.Center, q.StartMillis, q.EndMillis, 10, opts)
			}},
		} {
			h := sha256.New()
			var results int
			for _, q := range qs {
				got, err := side.ask(q)
				if err != nil {
					t.Fatal(err)
				}
				var b []byte
				for _, r := range got {
					b = binary.LittleEndian.AppendUint64(b, r.Entry.ID)
				}
				h.Write(binary.LittleEndian.AppendUint64(b, 0)) // ids start at 1: 0 ends an answer
				results += len(got)
			}
			if sum := hex.EncodeToString(h.Sum(nil)); sum != tc.want {
				t.Errorf("%s, %d ms window: %d results, digest %s, want %s", side.name, tc.window, results, sum, tc.want)
			}
		}
	}
}
