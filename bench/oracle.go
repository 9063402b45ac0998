package main

import (
	"encoding/json"
	"sort"

	"fovr/internal/index"
	"fovr/internal/query"
)

// answer mirrors the JSON shape shared by /query and /nearest answers.
type answer struct {
	Results []struct {
		Entry struct {
			ID uint64 `json:"id"`
		} `json:"entry"`
		DistanceMeters float64 `json:"distanceMeters"`
	} `json:"results"`
}

// oracleEntries are an upload's entries as the program must hold them:
// the acknowledged ids over the wire-rounded reps. Unacknowledged
// uploads yield nothing.
func oracleEntries(u *upload, ids []uint64) []index.Entry {
	if ids[u.first] == 0 {
		return nil
	}
	out := make([]index.Entry, len(u.u.Reps))
	for i, rep := range u.u.Reps {
		out[i] = index.Entry{ID: ids[u.first+i], Provider: u.u.Provider, Rep: rep, Camera: u.u.Camera}
	}
	return out
}

// expected asks the oracle the sampled question.
func expected(lin *index.Linear, req *request) ([]query.Ranked, error) {
	opts := query.Options{Camera: camera, MaxResults: 20}
	if req.kind == kindNearest {
		return query.SearchNearest(lin, req.q.Center, req.q.StartMillis, req.q.EndMillis, req.k, opts)
	}
	return query.Search(lin, req.q, opts)
}

func sameAnswer(got *answer, want []query.Ranked) bool {
	if len(got.Results) != len(want) {
		return false
	}
	for i, r := range got.Results {
		if r.Entry.ID != want[i].Entry.ID || r.DistanceMeters != want[i].DistanceMeters {
			return false
		}
	}
	return true
}

// verify checks every sampled answer against index.Linear +
// query.Search over the acknowledged entries. Where a writer ran beside
// the reader, an answer is right if it matches the oracle with any
// prefix of the writer's uploads that could have been applied when the
// question was served: everything acknowledged before it was sent, and
// possibly the uploads in flight until it was answered.
func verify(in *inputs, ids []uint64, samples []sample, dropOne bool) (checked, wrong int) {
	var drop uint64
	if dropOne {
		for _, s := range samples {
			var a answer
			if json.Unmarshal(s.body, &a) == nil && len(a.Results) > 0 {
				drop = a.Results[0].Entry.ID
				break
			}
		}
	}
	lin := index.NewLinear()
	for i := range in.corpus {
		for _, e := range oracleEntries(&in.corpus[i], ids) {
			if e.ID != drop {
				_ = lin.Insert(e) // ids are distinct; Validate passed when the wire format took the rep
			}
		}
	}
	// Samples of the two connections are each in time order; put them in
	// the order the write stream advanced.
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].ackedLo < samples[j].ackedLo })
	applied := 0 // writer uploads currently in the oracle
	apply := func(upTo int) {
		for ; applied < upTo; applied++ {
			_ = lin.InsertBatch(oracleEntries(&in.extra[applied], ids))
		}
	}
	for i := range samples {
		s := &samples[i]
		var got answer
		if err := json.Unmarshal(s.body, &got); err != nil {
			checked, wrong = checked+1, wrong+1
			continue
		}
		apply(s.ackedLo)
		ok := false
		for {
			want, err := expected(lin, s.req)
			if ok = err == nil && sameAnswer(&got, want); ok || applied >= s.ackedHi {
				break
			}
			apply(applied + 1)
		}
		// Take the in-flight uploads out again: the next sample may have
		// been served before they landed.
		for applied > s.ackedLo {
			applied--
			for _, e := range oracleEntries(&in.extra[applied], ids) {
				lin.Remove(e.ID)
			}
		}
		checked++
		if !ok {
			wrong++
		}
	}
	return checked, wrong
}
