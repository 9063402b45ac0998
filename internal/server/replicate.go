// Replication endpoints and apply paths: the leader side serves
// /replicate from its durable store's log; the follower side is the
// replica.Applier implementation that folds shipped records into the
// same index/journal state ordinary ingest feeds.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/store"
)

// ErrReadOnly marks mutations rejected by a read replica. Handlers map
// it to HTTP 409 with an ErrorResponse naming the leader to write to.
var ErrReadOnly = errors.New("server is a read-only replica")

// ErrorResponse is the JSON error body. Leader is set when the error is
// ErrReadOnly, pointing the client at the process that accepts writes.
type ErrorResponse struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
}

// respondError writes a JSON error body. ErrReadOnly is annotated with
// the leader URL so a client holding a replica address can redirect its
// writes without out-of-band configuration.
func (s *Server) respondError(w http.ResponseWriter, code int, err error) {
	resp := ErrorResponse{Error: err.Error()}
	if errors.Is(err, ErrReadOnly) {
		resp.Leader = s.cfg.LeaderURL
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, merr := json.Marshal(resp)
	if merr != nil {
		return
	}
	s.traffic.AddSent(len(data))
	_, _ = w.Write(data)
}

// readOnlyErr wraps ErrReadOnly with the operation being refused.
func (s *Server) readOnlyErr(op string) error {
	return fmt.Errorf("server: %s refused: %w (leader: %s)", op, ErrReadOnly, s.cfg.LeaderURL)
}

// handleReplicate serves the replication protocol (package replica) from
// the durable store's log. Only a durable leader can serve it: a Mem
// store has no log to ship, and a read replica must not be chained from.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	src, ok := s.store.(replica.LogSource)
	if !ok {
		httpError(w, http.StatusConflict, "replication requires a durable leader (-data-dir)")
		return
	}
	if s.cfg.ReadOnly {
		s.respondError(w, http.StatusConflict, s.readOnlyErr("replicate"))
		return
	}
	res, err := replica.Serve(w, r, src)
	if res.Stream == "" {
		// Nothing served: a malformed request, a segment the manifest
		// moved past, or a store failure.
		if err != nil {
			s.reqLog(r).Error("replicate failed", "err", err)
		}
		return
	}
	s.reg.Counter(fmt.Sprintf("fovr_replica_serve_total{stream=%q}", res.Stream)).Inc()
	s.reg.Counter("fovr_replica_shipped_bytes_total").Add(res.Bytes)
	s.traffic.AddSent(int(res.Bytes))
	if err != nil {
		s.reqLog(r).Error("replicate stream aborted", "stream", res.Stream, "bytesSent", res.Bytes, "err", err)
		return
	}
	s.reqLog(r).Info("replicate", "stream", res.Stream, "bytes", res.Bytes)
}

// ApplyRegister folds one shipped registration record into local state:
// journal first (a durable follower re-persists the records it applies,
// so failover-by-restart serves them without the leader), then index —
// the same order, and the same invariants, as Register. IDs arrive
// pre-assigned by the leader; nextID only ratchets past them so a
// follower promoted to leader never reuses one.
//
// trace is the originating leader request's trace ID carried by the WAL
// record (empty when that request was untraced): the apply is recorded
// as a follower-side trace naming it as Origin, so /debug/traces here
// resolves the leader's ID to what this node did with the record, and
// the re-journaled record keeps the stamp for any downstream reader.
//
// There is no compensating removal on insert failure: the follower's
// recovery from a half-applied record is a re-bootstrap, which replaces
// the state wholesale.
func (s *Server) ApplyRegister(entries []index.Entry, trace string) error {
	if len(entries) == 0 {
		return nil
	}
	defer s.keepApplyTrace("apply.register", trace, len(entries))()
	if err := s.store.AppendRegisterTraced(entries, trace); err != nil {
		return fmt.Errorf("server: journal replicated upload: %w", err)
	}
	s.mu.Lock()
	s.creditLocked(entries)
	idx := s.idx
	s.mu.Unlock()
	if err := idx.InsertBatch(entries); err != nil {
		s.debit(entries)
		return fmt.Errorf("server: apply replicated upload: %w", err)
	}
	return nil
}

// ApplyRemove folds one shipped removal record into local state. Ids
// unknown locally are skipped without error: the leader journals
// compensating removals for uploads that never reached its index, and a
// replay may also straddle a checkpoint that already dropped them.
func (s *Server) ApplyRemove(ids []uint64, trace string) error {
	if len(ids) == 0 {
		return nil
	}
	defer s.keepApplyTrace("apply.remove", trace, len(ids))()
	if err := s.store.AppendRemoveTraced(ids, trace); err != nil {
		return fmt.Errorf("server: journal replicated removal: %w", err)
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	idx := s.index()
	gone := entriesWhere(idx, func(e *index.Entry) bool {
		_, ok := slices.BinarySearch(sorted, e.ID)
		return ok
	})
	idx.RemoveBatch(gone)
	s.debit(gone)
	return nil
}

// keepApplyTrace records a follower-side apply as a retained trace
// whose Origin is the leader request's propagated trace ID, stitching
// the two halves: GET /debug/traces/{leaderID} on this node finds the
// apply. Untraced records (trace == "") record nothing. Returns the
// completion to defer around the apply body.
func (s *Server) keepApplyTrace(op, trace string, items int) func() {
	if trace == "" {
		return func() {}
	}
	tr := obs.NewQueryTrace(s.applySeq(op))
	tr.Origin = trace
	tr.SetQuery(fmt.Sprintf("%s items=%d origin=%s", op, items, trace))
	return func() {
		tr.Finish(nil)
		s.traces.Keep(tr)
	}
}

// applySeq mints a follower-local trace id for one applied record.
func (s *Server) applySeq(op string) string {
	return fmt.Sprintf("%s-%d", op, s.reqSeq.Add(1))
}

// HasSegment implements replica.Applier: a segment the store already
// holds (a durable one live or staged, Mem one decoded this bootstrap)
// need not be fetched again.
func (s *Server) HasSegment(window int64, seq uint64, crc uint32) bool {
	return s.store.HasSegment(window, seq, crc)
}

// InstallSegment implements replica.Applier: verify and stage one
// fetched segment before the bootstrap moves to the next.
func (s *Server) InstallSegment(meta store.SegmentMeta, raw []byte) error {
	return s.store.InstallSegment(meta, raw)
}

// FinishBootstrap implements replica.Applier: swap the installed
// segments into the store over an empty memtable, then rebuild the
// serving index from the new visible set. An index rebuild failure after the store's
// swap is reported so the follower re-bootstraps — a durable store's
// retry skips every installed segment and only re-runs the swap.
func (s *Server) FinishBootstrap(m store.ManifestSnapshot) error {
	entries, err := s.store.FinishBootstrap(m)
	if err != nil {
		return err
	}
	return s.replaceState(entries)
}

// AttachFollower exposes a running replication follower's status on
// /stats (fovserver wires this when started with -replica-of) and
// registers the replica component health check.
func (s *Server) AttachFollower(f *replica.Follower) {
	s.mu.Lock()
	s.follower = f
	s.mu.Unlock()
	s.registerReplicaCheck(f)
}

// replicationStatus returns the attached follower's status, or nil.
func (s *Server) replicationStatus() *replica.Status {
	s.mu.Lock()
	f := s.follower
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	st := f.Status()
	return &st
}
