// POST /nearest: the k segments nearest to a point that cover it, over
// an interval ("closest k segments to this point in this interval"
// without choosing a radius). It is POST /query at radius 0 with N = k —
// the same walk, ranking, trace and slow-query log, handled by the same
// body (serveRead); only the request and answer documents differ.
package server

import (
	"errors"

	"fovr/internal/geo"
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

// Question returns what the request asks: the query at radius 0 with
// N = K.
func (r *NearestRequest) Question() QueryRequest {
	return QueryRequest{Query: query.Query{StartMillis: r.StartMillis, EndMillis: r.EndMillis, Center: r.Center}, MaxResults: r.K}
}

// Nearest answers a k-nearest request in-process (benchmarks, router
// tests). k <= 0 selects the configured DefaultMaxResults.
func (s *Server) Nearest(center geo.Point, startMillis, endMillis int64, k int) ([]query.Ranked, error) {
	return s.Query(query.Query{StartMillis: startMillis, EndMillis: endMillis, Center: center}, k)
}
