package figures

import (
	"fmt"
	"math/rand"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/segment"
)

// corpusCity anchors the synthetic ingest corpus; entries scatter across
// ~5 km of it and a day of capture time, like the index test corpus.
var corpusCity = geo.Point{Lat: 40.0, Lng: 116.3}

// uploadLen is the upload size: one capture session's worth of
// representatives, inserted with one InsertBatch like the server does.
const uploadLen = 64

// bulkLoad STR-packs entries into an R-tree index, panicking on an
// invalid corpus.
func bulkLoad(entries []index.Entry) *index.RTree {
	idx, err := index.BulkLoadRTree(defaultCam.RadiusMeters, len(entries), func(add func(*index.Entry) error) error {
		for i := range entries {
			if err := add(&entries[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return idx
}

// corpusBatches builds a deterministic corpus of n representatives
// grouped into upload batches. Each batch models one capture session:
// its segments are temporally contiguous (~2 s apart, <= 60 s long), and
// session start times spread uniformly over a day — so a batch lands in
// one or two of the day's 24 one-hour windows, the way real uploads do.
func corpusBatches(n int) [][]index.Entry {
	rng := rand.New(rand.NewSource(51))
	var batches [][]index.Entry
	id := uint64(1)
	for len(batches)*uploadLen < n {
		size := min(uploadLen, n-len(batches)*uploadLen)
		base := int64(rng.Intn(86_400_000))
		batch := make([]index.Entry, size)
		for i := range batch {
			p := geo.Offset(corpusCity, rng.Float64()*360, rng.Float64()*5000)
			start := base + int64(i)*2000 + int64(rng.Intn(500))
			batch[i] = index.Entry{
				ID:       id,
				Provider: fmt.Sprintf("client-%d", len(batches)%64),
				Rep: segment.Representative{
					FoV:         fov.FoV{P: p, Theta: rng.Float64() * 360},
					StartMillis: start,
					EndMillis:   start + int64(rng.Intn(60_000)),
				},
			}
			id++
		}
		batches = append(batches, batch)
	}
	return batches
}
