package main

import (
	"encoding/json"
	"fmt"
	"time"

	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/wire"
	"fovr/internal/workload"
)

// sizes scales a run. The full size is what BENCHMARK.json measures;
// the smoke size runs all four workloads inside go test.
type sizes struct {
	entries int // corpus entries preloaded in set-up
	extra   int // further entries the open-loop writer draws from
	queries int // distinct pre-marshalled requests per shape
	reps    int // representatives per upload
	setups  int // set-ups per untraced run; setup_s is their median
	replay  int // requests replayed serially in the traced run
	warm    time.Duration
	slice   time.Duration // the measured window is cut into slices of this length
}

var fullSizes = sizes{
	entries: 200_000, extra: 60_000, queries: 50_000, reps: 20,
	setups: 3, replay: 1500, warm: 2 * time.Second, slice: 1 * time.Second,
}

var smokeSizes = sizes{
	entries: 5_000, extra: 4_000, queries: 2_000, reps: 20,
	setups: 2, replay: 200, warm: 200 * time.Millisecond, slice: 500 * time.Millisecond,
}

const (
	horizonMillis = 24 * 3600 * 1000
	hourMillis    = 3600 * 1000
)

const (
	kindQuery = iota
	kindNearest
	kindUpload
	numKinds
)

var kindPath = [numKinds]string{"/query", "/nearest", "/upload"}

// request is one pre-marshalled HTTP request. head holds the request
// line and headers without the closing blank line, so the generator can
// add the trace header in traced runs.
type request struct {
	kind int
	head []byte
	body []byte
	q    query.Query // the question asked, for the oracle and the replays
	k    int         // /nearest only
}

func newRequest(kind int, body []byte) request {
	ct := "application/json"
	if kind == kindUpload {
		ct = "application/octet-stream"
	}
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n",
		kindPath[kind], ct, len(body))
	return request{kind: kind, head: []byte(head), body: body}
}

// upload is one provider contribution as the program will see it: reps
// already rounded to the wire format's fixed point, so the oracle, the
// in-process Register path and the HTTP path all hold identical values.
type upload struct {
	u     wire.Upload
	req   request // the binary /upload request
	first int     // position of its first rep in the acknowledged-id table
	owner int     // cluster partition index (0 on single nodes)
}

// shape is one family of read requests.
type shape struct {
	radius float64 // 0 selects /nearest
	window int64
	k      int
}

var (
	shapePoint       = shape{radius: 30, window: hourMillis}
	shapeNearest     = shape{window: hourMillis, k: 10}
	shapeScan        = shape{radius: 300, window: horizonMillis}
	shapeWide        = shape{radius: 30, window: 12 * hourMillis}
	shapeWideNearest = shape{window: 12 * hourMillis, k: 10}
)

// inputs is everything a run feeds the program, derived from the seed
// alone.
type inputs struct {
	corpus  []upload
	extra   []upload
	queries []request // 7 of 8 requests in mixed workloads, all in pure ones
	nearest []request // every 8th request where the workload mixes /nearest in
}

// nearestBody mirrors the JSON shape of POST /nearest.
type nearestBody struct {
	Center      geo.Point `json:"center"`
	StartMillis int64     `json:"startMillis"`
	EndMillis   int64     `json:"endMillis"`
	K           int       `json:"k"`
}

func genInputs(seed int64, sz sizes, w *workloadDef) (*inputs, error) {
	cfg := workload.Config{Seed: seed, Distribution: workload.Hotspot}
	// One call, so corpus and extra entries share the hotspots.
	entries := workload.Entries(cfg, sz.entries+sz.extra)
	in := &inputs{}
	var err error
	if in.corpus, err = groupUploads(entries[:sz.entries], sz.reps, 0, w.ownerOf); err != nil {
		return nil, err
	}
	if in.extra, err = groupUploads(entries[sz.entries:], sz.reps, sz.entries, w.ownerOf); err != nil {
		return nil, err
	}
	if in.queries, err = genRequests(cfg, sz.queries, w.query); err != nil {
		return nil, err
	}
	if w.nearest != (shape{}) {
		if in.nearest, err = genRequests(cfg, sz.queries, w.nearest); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// groupUploads packs entries into uploads of up to reps representatives
// per (owner, provider), in generation order, and rounds them through
// the wire format. firstID is the id-table position of the first entry.
func groupUploads(entries []index.Entry, reps, firstID int, ownerOf func(index.Entry) (int, error)) ([]upload, error) {
	type key struct {
		owner    int
		provider string
	}
	pending := map[key]*wire.Upload{}
	var order []key // keys in first-seen order, to flush remainders deterministically
	var out []upload
	next := firstID
	emit := func(k key, u *wire.Upload) error {
		body, err := wire.EncodeBinary(*u)
		if err != nil {
			return err
		}
		seen, err := wire.DecodeBinary(body)
		if err != nil {
			return err
		}
		out = append(out, upload{u: seen, req: newRequest(kindUpload, body), first: next, owner: k.owner})
		next += len(seen.Reps)
		return nil
	}
	for _, e := range entries {
		k := key{provider: e.Provider}
		if ownerOf != nil {
			o, err := ownerOf(e)
			if err != nil {
				return nil, err
			}
			k.owner = o
		}
		u := pending[k]
		if u == nil {
			u = &wire.Upload{Provider: e.Provider}
			pending[k] = u
			order = append(order, k)
		}
		u.Reps = append(u.Reps, e.Rep)
		if len(u.Reps) == reps {
			if err := emit(k, u); err != nil {
				return nil, err
			}
			u.Reps = nil
		}
	}
	for _, k := range order {
		if u := pending[k]; len(u.Reps) > 0 {
			if err := emit(k, u); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// genRequests builds n distinct read requests of one shape, centres and
// time windows from workload.Queries: uniform over the city, so a few
// in a hundred land inside a hotspot and find many candidates while the
// median question finds few.
func genRequests(cfg workload.Config, n int, sh shape) ([]request, error) {
	qs := workload.Queries(cfg, n, sh.radius, sh.window)
	out := make([]request, n)
	for i, q := range qs {
		var (
			body []byte
			err  error
			kind = kindQuery
		)
		if sh.radius == 0 {
			kind = kindNearest
			body, err = json.Marshal(nearestBody{q.Center, q.StartMillis, q.EndMillis, sh.k})
		} else {
			body, err = json.Marshal(q)
		}
		if err != nil {
			return nil, err
		}
		out[i] = newRequest(kind, body)
		out[i].q, out[i].k = q, sh.k
	}
	return out, nil
}
