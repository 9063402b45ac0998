// POST /nearest: k-nearest-neighbor retrieval over the server's index.
// The single-node HTTP surface for index.NearestSearcher, added so the
// cluster router can scatter-gather nearest queries the same way it
// does box queries — and useful on its own ("closest k segments to this
// point in this interval" without choosing a radius).
package server

import (
	"errors"
	"fmt"
	"net/http"

	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
)

// ErrMisdirected marks an upload rejected by the ownership guard
// (Config.OwnsRep): the representative belongs to a different cluster
// partition. Served as HTTP 421 so routers distinguish a misroute —
// fix the topology, resend elsewhere — from a bad request.
var ErrMisdirected = errors.New("misdirected upload (rep owned by another partition)")

// NearestRequest is the body of POST /nearest.
type NearestRequest struct {
	// Center is the point neighbors are ranked against.
	Center geo.Point `json:"center"`
	// [StartMillis, EndMillis] filters by segment-interval overlap.
	StartMillis int64 `json:"startMillis"`
	EndMillis   int64 `json:"endMillis"`
	// K bounds the result count; 0 falls back to the server's
	// DefaultMaxResults.
	K int `json:"k,omitempty"`
}

// NearestResponse is the ranked neighbor list, nearest first.
type NearestResponse struct {
	Results       []query.Ranked `json:"results"`
	ElapsedMicros int64          `json:"elapsedMicros"`
	TraceID       string         `json:"traceID,omitempty"`
}

// Nearest answers a k-nearest request in-process (benchmarks, router
// tests). k <= 0 selects the configured DefaultMaxResults.
func (s *Server) Nearest(center geo.Point, startMillis, endMillis int64, k int) ([]query.Ranked, error) {
	opts := query.Options{Camera: s.cfg.Camera, MaxResults: s.cfg.DefaultMaxResults}
	return query.SearchNearest(s.index(), center, startMillis, endMillis, k, opts)
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	sc := getReadScratch()
	defer putReadScratch(sc)
	var err error
	if sc.in, err = ReadBody(sc.in[:0], r.Body, 1<<16); err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	s.traffic.AddReceived(len(sc.in))
	var req NearestRequest
	if err := DecodeNearestRequest(sc.in, &req); err != nil {
		httpError(w, http.StatusBadRequest, "json: %v", err)
		return
	}
	tr := obs.NewQueryTrace(s.traceID(w, r))
	results, err := s.Nearest(req.Center, req.StartMillis, req.EndMillis, req.K)
	total := tr.Finish(err)
	s.traces.ObserveLabeled(tr, func() string {
		return fmt.Sprintf("nearest center=(%.6f,%.6f) t=[%d,%d] k=%d",
			req.Center.Lat, req.Center.Lng, req.StartMillis, req.EndMillis, req.K)
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if results == nil {
		results = []query.Ranked{}
	}
	if s.logOn {
		s.reqLog(r).Info("nearest",
			"center", fmt.Sprint(req.Center),
			"startMillis", req.StartMillis,
			"endMillis", req.EndMillis,
			"k", req.K,
			"hits", len(results),
			"traceID", tr.ID,
		)
	}
	resp := NearestResponse{
		Results:       results,
		ElapsedMicros: total.Microseconds(),
		TraceID:       tr.ID,
	}
	sc.out, err = AppendNearestResponse(sc.out[:0], &resp)
	s.writeJSON(w, sc.out, err)
}
