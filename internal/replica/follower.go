// Follower side of the protocol: a pull loop that fetches batches from
// the leader and folds them into the local server through the same
// Store-backed apply path ordinary ingest uses.
package replica

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/store"
)

// Applier is the state sink the follower feeds; *server.Server
// implements it. ApplyRegister and ApplyRemove mirror one leader WAL
// record each, carrying the originating leader request's trace ID (""
// when that request was untraced). HasSegment, InstallSegment and
// FinishBootstrap are the bootstrap (store.Store's methods of the same
// names): a segment HasSegment reports is not fetched, each fetched one
// is installed before the next, and FinishBootstrap replaces the state
// with the leader's manifest (every segment installed, less its
// tombstones) over an empty memtable; the log from the manifest's
// BaseGen follows through the applies. After a failed apply the state
// may be inconsistent with the cursor; the follower recovers by
// re-bootstrapping, never by retrying.
type Applier interface {
	ApplyRegister(entries []index.Entry, trace string) error
	ApplyRemove(ids []uint64, trace string) error
	HasSegment(window int64, seq uint64, crc uint32) bool
	InstallSegment(meta store.SegmentMeta, raw []byte) error
	FinishBootstrap(m store.ManifestSnapshot) error
}

// Fetcher performs /replicate round-trips; *client.Replicator implements
// it over HTTP. Fetch reads the log tail from cur, asking the leader to
// hold the request up to wait when there is nothing new; the other two
// are the bootstrap legs. FetchSegment returns the file bytes of the
// segment meta names, no more than meta.Bytes of them.
type Fetcher interface {
	Fetch(ctx context.Context, cur Cursor, wait time.Duration) (*Batch, error)
	FetchManifest(ctx context.Context) (*ManifestBatch, error)
	FetchSegment(ctx context.Context, meta store.SegmentMeta) ([]byte, error)
}

// Options configures a Follower.
type Options struct {
	// Fetch pulls batches from the leader. Required.
	Fetch Fetcher
	// Apply folds batches into local state. Required.
	Apply Applier
	// Poll is the long-poll wait requested per fetch; it also paces the
	// retry loop after fetch errors. Zero means 10s.
	Poll time.Duration
	// Registry receives the fovr_replica_* metrics; nil selects
	// obs.Default.
	Registry *obs.Registry
	// Logger receives replication diagnostics; nil silences them.
	Logger *slog.Logger
}

// Status is a snapshot of the follower's replication state, served on
// the read replica's /stats.
type Status struct {
	// State is "bootstrapping" until the first successful batch, then
	// "streaming".
	State string `json:"state"`
	// Cursor is the position up to which the leader's log is applied.
	Cursor Cursor `json:"cursor"`
	// Lead is the leader's log head as of the last batch.
	Lead Cursor `json:"lead"`
	// LagBytes is Lead.Off-Cursor.Off when both cursors are in the same
	// generation; -1 when the follower is a generation behind and the
	// byte distance is unknowable (the leader truncated that log).
	LagBytes int64 `json:"lagBytes"`
	// CaughtUp reports whether the last batch left the cursor at the
	// leader's head.
	CaughtUp       bool   `json:"caughtUp"`
	AppliedRecords int64  `json:"appliedRecords"`
	AppliedBytes   int64  `json:"appliedBytes"`
	Bootstraps     int64  `json:"bootstraps"`
	FetchErrors    int64  `json:"fetchErrors"`
	ApplyErrors    int64  `json:"applyErrors"`
	LeaderStoreID  string `json:"leaderStoreID,omitempty"`
	LastError      string `json:"lastError,omitempty"`
}

// Follower owns the replication pull loop. Create with Start; stop with
// Close.
type Follower struct {
	opts Options
	log  *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	st      Status
	changed chan struct{} // closed+replaced on every status update

	applied         *obs.Counter
	appliedBytes    *obs.Counter
	bootstraps      *obs.Counter
	fetchErrs       *obs.Counter
	applyErrs       *obs.Counter
	segFetched      *obs.Counter
	segSkipped      *obs.Counter
	segFetchedBytes *obs.Counter
}

// Start validates opts, registers the replica metrics, and launches the
// pull loop.
func Start(opts Options) (*Follower, error) {
	if opts.Fetch == nil || opts.Apply == nil {
		return nil, errors.New("replica: Fetch and Apply are required")
	}
	if opts.Poll <= 0 {
		opts.Poll = 10 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	if opts.Logger == nil {
		opts.Logger = obs.Discard
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		opts:    opts,
		log:     opts.Logger,
		ctx:     ctx,
		cancel:  cancel,
		st:      Status{State: "bootstrapping", LagBytes: -1},
		changed: make(chan struct{}),
	}
	reg := opts.Registry
	f.applied = reg.Counter("fovr_replica_applied_records_total")
	f.appliedBytes = reg.Counter("fovr_replica_applied_bytes_total")
	f.bootstraps = reg.Counter("fovr_replica_bootstraps_total")
	f.fetchErrs = reg.Counter("fovr_replica_fetch_errors_total")
	f.applyErrs = reg.Counter("fovr_replica_apply_errors_total")
	f.segFetched = reg.Counter("fovr_replica_segments_fetched_total")
	f.segSkipped = reg.Counter("fovr_replica_segments_skipped_total")
	f.segFetchedBytes = reg.Counter("fovr_replica_segment_fetched_bytes_total")
	reg.GaugeFunc("fovr_replica_lag_bytes", func() float64 { return float64(f.Status().LagBytes) })
	reg.GaugeFunc("fovr_replica_caught_up", func() float64 {
		if f.Status().CaughtUp {
			return 1
		}
		return 0
	})
	f.wg.Add(1)
	go obs.LabelWorker("replica.follower", f.run)
	return f, nil
}

// Close stops the pull loop and waits for it to exit. The local state
// keeps whatever prefix was applied.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
}

// Status returns the current replication status.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// WaitCaughtUp blocks until the follower has observed a caught-up state
// (cursor at the leader's head) or ctx expires. It does not guarantee
// the follower is still caught up on return — the leader may have
// appended since — only that the replicated prefix reached the head the
// leader reported at least once.
func (f *Follower) WaitCaughtUp(ctx context.Context) error {
	for {
		f.mu.Lock()
		ok := f.st.CaughtUp
		ch := f.changed
		f.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-f.ctx.Done():
			return errors.New("replica: follower closed")
		}
	}
}

// update mutates the status under the lock and wakes WaitCaughtUp.
func (f *Follower) update(mut func(*Status)) {
	f.mu.Lock()
	mut(&f.st)
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
}

// run is the pull loop: fetch, apply, advance; bootstrap on anything
// that breaks the tail.
func (f *Follower) run() {
	defer f.wg.Done()
	errDelay := time.Second
	for f.ctx.Err() == nil {
		cur := f.Status().Cursor
		var b *Batch
		var err error
		start := time.Now()
		if cur.IsZero() {
			err = f.bootstrap()
		} else {
			b, err = f.opts.Fetch.Fetch(f.ctx, cur, f.opts.Poll)
		}
		if err != nil {
			if f.ctx.Err() != nil {
				return
			}
			f.fetchErrs.Inc()
			f.update(func(st *Status) { st.FetchErrors++; st.LastError = err.Error(); st.CaughtUp = false })
			f.log.Warn("replica fetch failed", "cursor", cur, "err", err)
			f.sleep(min(errDelay, f.opts.Poll))
			errDelay = min(errDelay*2, 30*time.Second)
			continue
		}
		errDelay = time.Second
		if b == nil {
			continue // bootstrapped: stream the WAL tail
		}
		f.handle(cur, b)
		// Anti-spin floor: a leader that answers an idle poll instantly
		// (wait unsupported or zero) must not turn the loop into a busy
		// wait.
		if len(b.Frames) == 0 && time.Since(start) < 10*time.Millisecond {
			f.sleep(10 * time.Millisecond)
		}
	}
}

// handle folds one log batch into local state and advances the cursor.
// Any inconsistency — a cursor the leader cannot serve, store identity
// changed, frames that do not decode, an apply failure — zeroes the
// cursor so the next round re-bootstraps.
func (f *Follower) handle(cur Cursor, b *Batch) {
	leaderID := f.Status().LeaderStoreID
	switch {
	case b.Next.IsZero():
		// The leader's log no longer holds this cursor: it checkpointed
		// past it, or its history was replaced.
		f.log.Info("leader cannot serve cursor; re-bootstrapping", "cursor", cur)
		f.update(func(st *Status) { st.Cursor = Cursor{}; st.CaughtUp = false })
		return
	case b.StoreID != "" && leaderID != "" && b.StoreID != leaderID:
		// Same URL, different data directory: the history this tail
		// belongs to is gone.
		f.log.Warn("leader store identity changed; re-bootstrapping",
			"was", leaderID, "now", b.StoreID)
		f.update(func(st *Status) { st.Cursor = Cursor{}; st.CaughtUp = false })
		return
	}
	recs, valid, err := store.DecodeWAL(b.Frames)
	if err != nil || valid != len(b.Frames) {
		if err == nil {
			err = fmt.Errorf("short frame tail at %d of %d", valid, len(b.Frames))
		}
		f.applyErrs.Inc()
		f.update(func(st *Status) {
			st.ApplyErrors++
			st.LastError = fmt.Sprintf("decode shipped frames: %v", err)
			st.Cursor = Cursor{}
			st.CaughtUp = false
		})
		f.log.Error("replica stream damaged; re-bootstrapping", "err", err)
		return
	}
	for _, rec := range recs {
		if err := applyRecord(f.opts.Apply, rec); err != nil {
			f.applyErrs.Inc()
			f.update(func(st *Status) {
				st.ApplyErrors++
				st.LastError = fmt.Sprintf("apply: %v", err)
				st.Cursor = Cursor{}
				st.CaughtUp = false
			})
			f.log.Error("replica apply failed; re-bootstrapping", "err", err)
			return
		}
	}
	f.applied.Add(int64(len(recs)))
	f.appliedBytes.Add(int64(len(b.Frames)))
	f.update(func(st *Status) {
		st.State = "streaming"
		st.AppliedRecords += int64(len(recs))
		st.AppliedBytes += int64(len(b.Frames))
		st.Cursor = b.Next
		if b.StoreID != "" {
			st.LeaderStoreID = b.StoreID
		}
		st.LastError = ""
		setLag(st, b.Lead)
	})
}

// setLag derives lag from the leader's head as a response reported it
// (st.Cursor already advanced).
func setLag(st *Status, lead Cursor) {
	st.Lead = lead
	switch {
	case lead.Gen == st.Cursor.Gen:
		st.LagBytes = lead.Off - st.Cursor.Off
	default:
		st.LagBytes = -1
	}
	st.CaughtUp = st.LagBytes == 0
}

// applyRecord dispatches one decoded WAL record to the Applier,
// forwarding the propagated trace ID the leader stamped into it.
func applyRecord(a Applier, rec store.Record) error {
	switch {
	case len(rec.Entries) > 0:
		return a.ApplyRegister(rec.Entries, rec.Trace)
	case len(rec.IDs) > 0:
		return a.ApplyRemove(rec.IDs, rec.Trace)
	}
	return nil // empty record: nothing to fold
}

// sleep pauses without outliving Close.
func (f *Follower) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.ctx.Done():
	}
}
