package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
)

// Continuous queries: an inquirer can register a standing query and poll
// for segments that arrive *after* registration — the "tell me when
// someone films this place during this window" mode a live investigation
// needs. Matching happens at upload time against every standing query,
// so the cost is O(subscriptions) per uploaded segment and zero per
// poll.
//
//	POST /subscribe   {query..., maxResults} -> {"id": N}
//	GET  /matches?id=N[&after=K]             -> {"results": [...], "last": K'}
//	DELETE-like: POST /unsubscribe?id=N

// maxMatchBacklog bounds the per-subscription match buffer.
const maxMatchBacklog = 256

// maxSubscriptions bounds the standing queries a server holds: each one
// is client-controlled state and a term in every upload's matching loop.
// /subscribe past it answers 429 until an /unsubscribe frees a slot.
const maxSubscriptions = 1024

type subscription struct {
	id  uint64
	q   query.Query
	max int

	mu      sync.Mutex
	matches []query.Ranked
	dropped int // count of evictions, keeps seq numbers stable
}

// subscriptions is the server-side registry.
type subscriptions struct {
	mu   sync.RWMutex
	next uint64
	subs map[uint64]*subscription
}

func newSubscriptions() *subscriptions {
	return &subscriptions{next: 1, subs: make(map[uint64]*subscription)}
}

// add registers a standing query, or returns nil when maxSubscriptions
// are already held.
func (ss *subscriptions) add(q query.Query, max int) *subscription {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.subs) >= maxSubscriptions {
		return nil
	}
	sub := &subscription{id: ss.next, q: q, max: max}
	ss.next++
	ss.subs[sub.id] = sub
	return sub
}

func (ss *subscriptions) remove(id uint64) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.subs[id]; !ok {
		return false
	}
	delete(ss.subs, id)
	return true
}

func (ss *subscriptions) get(id uint64) *subscription {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.subs[id]
}

func (ss *subscriptions) count() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.subs)
}

// offer tests a freshly uploaded entry against every standing query.
func (ss *subscriptions) offer(cam fov.Camera, e index.Entry) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for _, sub := range ss.subs {
		q := sub.q
		if e.Rep.EndMillis < q.StartMillis || e.Rep.StartMillis > q.EndMillis {
			continue
		}
		if !e.Rep.FoV.CoversCircle(cam, q.Center, q.RadiusMeters) {
			continue
		}
		sub.mu.Lock()
		sub.matches = append(sub.matches, query.Ranked{
			Entry:          e,
			DistanceMeters: geo.Distance(e.Rep.FoV.P, q.Center),
		})
		if len(sub.matches) > maxMatchBacklog {
			over := len(sub.matches) - maxMatchBacklog
			sub.matches = append(sub.matches[:0], sub.matches[over:]...)
			sub.dropped += over
		}
		sub.mu.Unlock()
	}
}

// SubscribeResponse acknowledges a standing query.
type SubscribeResponse struct {
	ID uint64 `json:"id"`
}

// MatchesResponse returns matches after a sequence cursor.
type MatchesResponse struct {
	Results []query.Ranked `json:"results"`
	// Last is the cursor to pass as ?after= next time.
	Last int `json:"last"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	s.traffic.AddReceived(len(body))
	var req QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "json: %v", err)
		return
	}
	if err := req.Query.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	max := req.MaxResults
	if max <= 0 {
		max = s.cfg.DefaultMaxResults
	}
	sub := s.subs.add(req.Query, max)
	if sub == nil {
		s.respondError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: %d standing queries held; unsubscribe one first", maxSubscriptions))
		return
	}
	s.reqLog(r).Info("subscribe",
		"subID", sub.id,
		"center", fmt.Sprint(req.Center),
		"radiusMeters", req.RadiusMeters,
	)
	s.respondJSON(w, SubscribeResponse{ID: sub.id})
}

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad id")
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		after, err = strconv.Atoi(v)
		if err != nil || after < 0 {
			httpError(w, http.StatusBadRequest, "bad after cursor")
			return
		}
	}
	sub := s.subs.get(id)
	if sub == nil {
		httpError(w, http.StatusNotFound, "unknown subscription %d", id)
		return
	}
	sub.mu.Lock()
	start := after - sub.dropped
	if start < 0 {
		start = 0
	}
	var results []query.Ranked
	if start < len(sub.matches) {
		results = append(results, sub.matches[start:]...)
	}
	last := sub.dropped + len(sub.matches)
	sub.mu.Unlock()
	if results == nil {
		results = []query.Ranked{}
	}
	s.respondJSON(w, MatchesResponse{Results: results, Last: last})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad id")
		return
	}
	if !s.subs.remove(id) {
		httpError(w, http.StatusNotFound, "unknown subscription %d", id)
		return
	}
	w.WriteHeader(http.StatusOK)
}
