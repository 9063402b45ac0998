// Component health: the server-side half of the ops plane.
// registerHealthChecks wires the store and index checkers at
// construction; AttachFollower adds the replica checker. /healthz
// serves the evaluated report (503 on failing, so a balancer or the
// query router can stop routing to a node that lost durability).
package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/store"
)

// Health thresholds. Conservative: degraded states flag conditions an
// operator should look at, failing states mean the node cannot do its
// job.
const (
	// walWarnBytes degrades the store when the live WAL segment exceeds
	// it: checkpointing has fallen behind ingest and recovery time is
	// growing unboundedly.
	walWarnBytes = 1 << 30 // 1 GiB
	// checkpointLagFactor degrades the store when the time since the
	// last checkpoint exceeds this multiple of the configured interval
	// while appends are pending.
	checkpointLagFactor = 3
	// replicaLagWarnBytes degrades a replica whose replication lag
	// exceeds it.
	replicaLagWarnBytes = 8 << 20 // 8 MiB
	// bootstrapLoopWindow/bootstrapLoopCount: a replica that
	// re-bootstraps this many times within the window is failing — it
	// cannot hold a stable tail.
	bootstrapLoopWindow = 5 * time.Minute
	bootstrapLoopCount  = 3
)

// registerHealthChecks installs the store and index checkers. The
// replica checker joins in AttachFollower, when a follower exists.
func (s *Server) registerHealthChecks() {
	s.health.Register("store", s.checkStore)
	s.health.Register("index", s.checkIndex)
}

// Health evaluates every registered checker (what /healthz serves).
func (s *Server) Health() obs.HealthReport { return s.health.Evaluate() }

// checkStore evaluates the durable store: failing on a sticky
// write/fsync failure or after Close, degraded when checkpointing falls
// behind. A non-durable Mem store is reported ok with durable=false —
// running without a data directory is a configuration, not a fault.
func (s *Server) checkStore() obs.HealthCheck {
	check := obs.HealthCheck{Component: "store", State: obs.HealthOK}
	d, ok := s.store.(*store.Disk)
	if !ok {
		check.Details = map[string]any{"durable": false}
		return check
	}
	h := d.Health()
	check.Details = map[string]any{
		"durable":         true,
		"fsync":           string(h.Fsync),
		"walBytes":        h.WALBytes,
		"generation":      h.Generation,
		"appendedRecords": h.AppendedSinceCheckpoint,
		"sinceCheckpoint": h.SinceCheckpoint.Round(time.Second).String(),
	}
	if h.Failed != nil {
		check.State = obs.HealthFailing
		check.Reasons = append(check.Reasons, fmt.Sprintf("store: sticky write/fsync failure: %v", h.Failed))
	}
	if h.Closed {
		check.State = check.State.Worse(obs.HealthFailing)
		check.Reasons = append(check.Reasons, "store: closed")
	}
	if h.WALBytes > walWarnBytes {
		check.State = check.State.Worse(obs.HealthDegraded)
		check.Reasons = append(check.Reasons,
			fmt.Sprintf("store: wal segment %d bytes exceeds %d (checkpointing behind ingest)", h.WALBytes, int64(walWarnBytes)))
	}
	if h.CheckpointInterval > 0 && h.AppendedSinceCheckpoint > 0 &&
		h.SinceCheckpoint > checkpointLagFactor*h.CheckpointInterval {
		check.State = check.State.Worse(obs.HealthDegraded)
		check.Reasons = append(check.Reasons,
			fmt.Sprintf("store: %s since last checkpoint with %d records pending (interval %s)",
				h.SinceCheckpoint.Round(time.Second), h.AppendedSinceCheckpoint, h.CheckpointInterval))
	}
	check.Details["segments"] = h.Segments
	check.Details["segmentBytes"] = h.SegmentBytes
	check.Details["memtableEntries"] = h.MemtableEntries
	return check
}

// checkIndex reports the index's entry count; the tree has no failure
// state of its own.
func (s *Server) checkIndex() obs.HealthCheck {
	return obs.HealthCheck{Component: "index", State: obs.HealthOK,
		Details: map[string]any{"entries": s.index().Len()}}
}

// registerReplicaCheck installs the replica checker once a follower is
// attached. Bootstrap-looping detection keeps the last observed
// bootstrap count and when it last changed, in the closure.
func (s *Server) registerReplicaCheck(f *replica.Follower) {
	type bootMark struct {
		count int64
		at    time.Time
	}
	var (
		marks []bootMark // bootstrap-count changes inside the window
	)
	s.health.Register("replica", func() obs.HealthCheck {
		check := obs.HealthCheck{Component: "replica", State: obs.HealthOK}
		st := f.Status()
		check.Details = map[string]any{
			"state":      st.State,
			"lagBytes":   st.LagBytes,
			"caughtUp":   st.CaughtUp,
			"bootstraps": st.Bootstraps,
			"leader":     s.cfg.LeaderURL,
		}
		if st.LastError != "" {
			check.Details["lastError"] = st.LastError
		}
		now := time.Now()
		if len(marks) == 0 || marks[len(marks)-1].count != st.Bootstraps {
			marks = append(marks, bootMark{count: st.Bootstraps, at: now})
		}
		for len(marks) > 0 && now.Sub(marks[0].at) > bootstrapLoopWindow {
			marks = marks[1:]
		}
		if len(marks) >= bootstrapLoopCount {
			check.State = obs.HealthFailing
			check.Reasons = append(check.Reasons,
				fmt.Sprintf("replica: %d bootstraps within %s (cannot hold a stable tail)",
					len(marks), bootstrapLoopWindow))
		}
		switch {
		case st.State == "bootstrapping":
			check.State = check.State.Worse(obs.HealthDegraded)
			check.Reasons = append(check.Reasons, "replica: bootstrapping (no applied state yet)")
		case st.LagBytes < 0:
			check.State = check.State.Worse(obs.HealthDegraded)
			check.Reasons = append(check.Reasons, "replica: a generation behind the leader (lag unknowable)")
		case st.LagBytes > replicaLagWarnBytes:
			check.State = check.State.Worse(obs.HealthDegraded)
			check.Reasons = append(check.Reasons,
				fmt.Sprintf("replica: lag %d bytes exceeds %d", st.LagBytes, replicaLagWarnBytes))
		}
		return check
	})
}

// HealthzResponse is the body of GET /healthz: the evaluated component
// report plus the liveness basics the endpoint has always carried.
type HealthzResponse struct {
	obs.HealthReport
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Segments      int     `json:"segments"`
	GoVersion     string  `json:"goVersion,omitempty"`
	BuildRevision string  `json:"buildRevision,omitempty"`
}

// handleHealthz serves the evaluated component health report. The HTTP
// status encodes the overall verdict — 200 for ok and degraded (the
// node still serves), 503 for failing — so a plain status-code probe
// agrees with the JSON body.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{
		HealthReport:  s.health.Evaluate(),
		UptimeSeconds: s.reg.UptimeSeconds(),
		Segments:      s.index().Len(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.GoVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.BuildRevision = kv.Value
			}
		}
	}
	if resp.State == obs.HealthFailing {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		s.writeJSONBody(w, resp)
		return
	}
	s.respondJSON(w, resp)
}
