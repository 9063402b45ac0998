// Package store owns the cloud server's entry lifecycle: the committed
// set of representative FoVs, made durable across process churn.
// Crowd-sourced uploads are unrepeatable — a phone that contributed a
// segment is gone — so the paper's server (Section V) ingesting them
// into RAM only is data loss waiting for a restart. This package puts a
// write-ahead log and periodic checkpoints under the server's state.
//
// Two implementations share the Store interface:
//
//   - Mem is the non-durable store used when no data directory is
//     configured: its journal operations are no-ops, so the server
//     behaves exactly as before this layer existed.
//   - Disk journals every state change into an append-only WAL
//     (length-prefixed, CRC-checksummed records; see wal.go) inside a
//     data directory. A checkpoint seals the mutable rest into immutable
//     per-window segment files (tiered.go, segfile.go) and moves the
//     manifest's WAL base past it; recovery reads the manifest, its
//     segments and the WAL from the manifest's BaseGen on, truncating a
//     torn final record.
//
// Crash-consistency contract (Disk):
//
//   - An append that returned nil under FsyncAlways is durable: it
//     survives SIGKILL and power loss (modulo disk lies about flush).
//   - Under FsyncInterval the write is in the OS page cache and synced
//     within FsyncEvery; a kill inside that window may lose the tail.
//     FsyncNever leaves syncing entirely to the OS.
//   - Recovery yields a prefix of the append order: a torn final record
//     is dropped whole, never a partial batch — an upload is visible
//     after recovery either completely or not at all.
//   - The manifest is the one recovery root. A checkpoint's segments
//     become part of the state only when the manifest naming them (and
//     the new BaseGen) is fsynced and atomically renamed into place;
//     WAL generations below BaseGen, and superseded segments, are
//     deleted only after that.
//
// File layout inside the data directory (NNN = decimal generation):
//
//	wal-NNN.log       — log generation NNN; recovery replays those ≥ BaseGen
//	manifest          — live segments, tombstones, BaseGen (manifest.go)
//	seg-W-S.fovg      — sealed time window W, rewrite S (segfile.go)
//	staged-W-S.fovg   — a follower's fetched segment awaiting its bootstrap
//	storeid           — persistent random identity (replication; tail.go)
//
// A directory written before the segment tier existed (logs, no
// manifest) opens with nothing sealed yet. One that holds any
// checkpoint-* file — the memtable images earlier builds wrote — fails
// Open naming the file: its WAL may already be retired, so skipping the
// file would silently lose state.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"fovr/internal/index"
	"fovr/internal/obs"
)

// Store is the server's state-change journal. The server routes every
// mutation through it before acknowledging, and rebuilds its index from
// ReadEntries at boot.
type Store interface {
	// AppendRegister durably records a committed upload batch. The
	// entries are validated; on error nothing is recorded.
	AppendRegister(entries []index.Entry) error
	// AppendRemove durably records the removal of ids.
	AppendRemove(ids []uint64) error
	// AppendRegisterTraced and AppendRemoveTraced are the two appends
	// with the originating request's trace ID stamped into the record,
	// so a replica replaying the log can attribute each apply to the
	// leader request that caused it. An empty trace records exactly
	// what the untraced append does.
	AppendRegisterTraced(entries []index.Entry, trace string) error
	AppendRemoveTraced(ids []uint64, trace string) error
	// ReadEntries returns the committed state (recovered plus appended),
	// in unspecified order. Non-durable stores return nil. A durable
	// store may read files to answer; one it cannot read is an error,
	// never a silently smaller state.
	ReadEntries() ([]index.Entry, error)
	// Checkpoint seals the state appended so far into segments and
	// retires the log below it. Non-durable stores return ErrNotDurable.
	Checkpoint() error
	// Durable reports whether appends survive a process kill.
	Durable() bool
	// Close releases resources; for durable stores it flushes and syncs
	// the log first. The store is unusable afterwards.
	Close() error

	// HasSegment, InstallSegment and FinishBootstrap are a replication
	// follower's bootstrap (package replica, tieredboot.go): every
	// segment of the leader's manifest that HasSegment does not report
	// is fetched and installed — verified against its meta — and then
	// FinishBootstrap replaces the state with those segments less the
	// manifest's tombstones, over an empty memtable, returning the
	// visible set. Disk stages installs durably; Mem holds them in RAM.
	HasSegment(window int64, seq uint64, crc uint32) bool
	InstallSegment(meta SegmentMeta, raw []byte) error
	FinishBootstrap(ms ManifestSnapshot) ([]index.Entry, error)
}

// ErrNotDurable is returned by operations that need a data directory
// from a store that has none.
var ErrNotDurable = errors.New("store: not durable (no data directory configured)")

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("store: closed")

// Mem is the non-durable store: every journal operation is a no-op,
// preserving the server's historical in-memory behavior when no data
// directory is configured. The server keeps using its index as the
// source of truth. The one thing Mem holds is a replication follower's
// bootstrap in flight: the decoded segments installed so far.
type Mem struct {
	mu     sync.Mutex
	staged map[SegmentMeta][]index.Entry
}

// NewMem returns the non-durable store.
func NewMem() *Mem { return &Mem{} }

func (*Mem) AppendRegister([]index.Entry) error { return nil }
func (*Mem) AppendRemove([]uint64) error        { return nil }

// Traced appends are equally no-ops: nothing is journaled, so there is
// nothing to stamp.
func (*Mem) AppendRegisterTraced([]index.Entry, string) error { return nil }
func (*Mem) AppendRemoveTraced([]uint64, string) error        { return nil }
func (*Mem) ReadEntries() ([]index.Entry, error)              { return nil, nil }
func (*Mem) Checkpoint() error                                { return ErrNotDurable }
func (*Mem) Durable() bool                                    { return false }
func (*Mem) Close() error                                     { return nil }

// FsyncPolicy selects when WAL appends reach the platter.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append: an acknowledged upload is
	// on disk. The durable default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer (Options.FsyncEvery): bounded data
	// loss, near-memory ingest throughput.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever never syncs explicitly; the OS page cache decides.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("store: unknown fsync policy %q (want %q, %q or %q)",
		s, FsyncAlways, FsyncInterval, FsyncNever)
}

// Options configures a Disk store.
type Options struct {
	// Dir is the data directory; created if absent. Required.
	Dir string
	// Fsync selects the WAL sync policy. Empty means FsyncAlways.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period. Zero means 100ms.
	FsyncEvery time.Duration
	// CheckpointInterval is the background checkpoint period. Zero
	// means 5m; negative disables background checkpointing (manual
	// Checkpoint calls still work).
	CheckpointInterval time.Duration
	// SegmentWindow is the segment time-window width. Zero means 1h.
	SegmentWindow time.Duration
	// SegmentWindowAge and CompactionInterval are ignored: a checkpoint
	// seals every window, and there is no compaction loop. They stay
	// because bench/ sets them.
	SegmentWindowAge   time.Duration
	CompactionInterval time.Duration
	// Registry receives the store's metrics; nil selects obs.Default.
	Registry *obs.Registry
	// Logger receives recovery and checkpoint diagnostics; nil silences
	// them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.FsyncEvery == 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 5 * time.Minute
	}
	if o.SegmentWindow == 0 {
		o.SegmentWindow = time.Hour
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Disk is the durable store. Construct with Open; safe for concurrent
// use.
type Disk struct {
	opts    Options
	log     *slog.Logger
	storeID string // persisted random identity of this data directory

	segWindowMs int64 // segment window width; immutable after Open

	mu        sync.Mutex
	state     map[uint64]index.Entry // the memtable: mutable working set
	segs      map[int64]SegmentMeta  // window key -> live sealed segment
	segIDs    map[uint64]int64       // live (non-tombstoned) sealed id -> window
	tombs     map[uint64][]int64     // removed sealed id -> windows holding dead copies
	tombCount int                    // total (id, window) tombstone pairs
	staged    []SegmentMeta          // bootstrap-staged segments, not served
	baseGen   uint64                 // first WAL generation the state replays
	wal       *os.File
	walGen    uint64
	walSize   int64
	dirty     bool  // unsynced appended bytes (FsyncInterval)
	appended  int64 // records since the last checkpoint
	failed    error // sticky first write/sync failure
	closed    bool
	lastCP    time.Time        // last successful checkpoint (or boot)
	notifyCh  chan struct{}    // closed+replaced on append/rotation (log tailing)
	retired   map[uint64]int64 // final sizes of completed generations (see tail.go)

	// cpMu serializes everything that replaces files — checkpoints,
	// segment installs, bootstrap — and every read of
	// sealed entries from their files. Taken before mu, never after.
	cpMu sync.Mutex

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	recoveredEntries int
	recoveryDuration time.Duration

	// metrics
	recRegister     *obs.Counter
	recRemove       *obs.Counter
	walBytes        *obs.Counter
	fsyncHist       *obs.Histogram
	replayed        *obs.Counter
	truncated       *obs.Counter
	checkpoints     *obs.Counter
	cpErrors        *obs.Counter
	cpHist          *obs.Histogram
	compactions     *obs.Counter
	segWrittenBytes *obs.Counter
}

func walName(gen uint64) string { return fmt.Sprintf("wal-%012d.log", gen) }

// parseGen extracts the generation from a store file name, reporting
// whether name matches prefix-NNN+suffix.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	var gen uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		gen = gen*10 + uint64(c-'0')
	}
	return gen, true
}

// Open opens (creating if needed) the data directory, recovers the
// committed state from the manifest's segments plus the WAL from its
// BaseGen on, and starts the background fsync/checkpoint loops.
func Open(opts Options) (*Disk, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	opts = opts.withDefaults()
	if _, err := ParseFsyncPolicy(string(opts.Fsync)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		opts:        opts,
		log:         opts.Logger,
		segWindowMs: opts.SegmentWindow.Milliseconds(),
		state:       make(map[uint64]index.Entry),
		segs:        make(map[int64]SegmentMeta),
		segIDs:      make(map[uint64]int64),
		tombs:       make(map[uint64][]int64),
		done:        make(chan struct{}),
		notifyCh:    make(chan struct{}),
		retired:     make(map[uint64]int64),
	}
	id, err := loadStoreID(opts.Dir)
	if err != nil {
		return nil, err
	}
	d.storeID = id
	reg := opts.Registry
	d.recRegister = reg.Counter(`fovr_wal_records_total{op="register"}`)
	d.recRemove = reg.Counter(`fovr_wal_records_total{op="remove"}`)
	d.walBytes = reg.Counter("fovr_wal_bytes_total")
	d.fsyncHist = reg.Histogram("fovr_wal_fsync_seconds")
	d.replayed = reg.Counter("fovr_wal_replayed_records_total")
	d.truncated = reg.Counter("fovr_wal_truncated_tails_total")
	d.checkpoints = reg.Counter("fovr_store_checkpoints_total")
	d.cpErrors = reg.Counter("fovr_store_checkpoint_errors_total")
	d.cpHist = reg.Histogram("fovr_store_checkpoint_seconds")
	d.compactions = reg.Counter("fovr_store_compactions_total")
	d.segWrittenBytes = reg.Counter("fovr_store_segment_written_bytes_total")

	start := time.Now()
	if err := d.recover(); err != nil {
		return nil, err
	}
	d.recoveryDuration = time.Since(start)
	d.recoveredEntries = len(d.state) + d.visibleSealedLocked()
	// Boot counts as the checkpoint baseline: "checkpoint age" measures
	// un-checkpointed runtime, not directory age.
	d.lastCP = time.Now()
	reg.GaugeFunc("fovr_store_recovery_seconds", func() float64 { return d.recoveryDuration.Seconds() })
	reg.GaugeFunc("fovr_store_recovered_entries", func() float64 { return float64(d.recoveredEntries) })
	reg.GaugeFunc("fovr_store_entries", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.state) + d.visibleSealedLocked())
	})
	reg.GaugeFunc("fovr_store_segment_count", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.segs))
	})
	reg.GaugeFunc("fovr_store_segment_bytes", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		var n int64
		for _, m := range d.segs {
			n += m.Bytes
		}
		return float64(n)
	})
	reg.GaugeFunc("fovr_store_segment_entries", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.visibleSealedLocked())
	})
	reg.GaugeFunc("fovr_store_memtable_entries", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.state))
	})
	// The live log's size and generation: leader and follower lag compare
	// from /metrics on both sides.
	reg.GaugeFunc("fovr_wal_size_bytes", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.walSize)
	})
	reg.GaugeFunc("fovr_wal_generation", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.walGen)
	})
	d.log.Info("store recovered",
		"dir", opts.Dir, "entries", d.recoveredEntries,
		"generation", d.walGen, "elapsed", d.recoveryDuration)

	if opts.CheckpointInterval > 0 {
		d.wg.Add(1)
		go obs.LabelWorker("store.checkpoint", func() { d.checkpointLoop(opts.CheckpointInterval) })
	}
	if opts.Fsync == FsyncInterval {
		d.wg.Add(1)
		go obs.LabelWorker("store.fsync", func() { d.fsyncLoop(opts.FsyncEvery) })
	}
	return d, nil
}

// RecoveryStats reports what Open found: committed entries recovered
// and how long recovery took.
func (d *Disk) RecoveryStats() (entries int, elapsed time.Duration) {
	return d.recoveredEntries, d.recoveryDuration
}

// recover loads the manifest and its segments, replays every log
// generation at or above its BaseGen (truncating a torn tail on the
// newest), and leaves d.wal open for appending.
func (d *Disk) recover() error {
	names, err := os.ReadDir(d.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), "checkpoint-") {
			return fmt.Errorf("store: %s is a checkpoint, which this build neither writes nor reads",
				filepath.Join(d.opts.Dir, de.Name()))
		}
	}
	if err := d.recoverSegments(); err != nil {
		return err
	}
	var walGens []uint64
	for _, de := range names {
		gen, ok := parseGen(de.Name(), "wal-", ".log")
		switch {
		case !ok:
		case gen < d.baseGen:
			// Retired by a checkpoint whose delete the crash cut short.
			os.Remove(filepath.Join(d.opts.Dir, de.Name()))
		default:
			walGens = append(walGens, gen)
		}
	}
	slices.Sort(walGens)
	for i, gen := range walGens {
		path := filepath.Join(d.opts.Dir, walName(gen))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		recs, valid, err := DecodeWAL(data)
		if err != nil {
			return fmt.Errorf("store: %s: %w", walName(gen), err)
		}
		if valid < len(data) {
			if i != len(walGens)-1 {
				// Appends only ever tear the newest segment; a short
				// older one means the directory was damaged.
				return fmt.Errorf("%w: %s torn at %d with newer segments present",
					ErrCorrupt, walName(gen), valid)
			}
			d.log.Warn("store: truncating torn wal tail",
				"file", path, "validBytes", valid, "droppedBytes", len(data)-valid)
			if err := os.Truncate(path, int64(valid)); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			d.truncated.Inc()
		}
		for _, rec := range recs {
			d.apply(rec)
		}
		d.replayed.Add(int64(len(recs)))
		d.retired[gen] = int64(valid)
		d.walSize = int64(valid)
	}
	// Resume appending to the newest generation, or start the first one.
	// The state replays from the oldest generation left, which is the
	// manifest's BaseGen unless no checkpoint has run.
	gen := max(d.baseGen, 1)
	if len(walGens) > 0 {
		d.baseGen, gen = walGens[0], walGens[len(walGens)-1]
	} else {
		d.baseGen = gen
	}
	f, err := os.OpenFile(filepath.Join(d.opts.Dir, walName(gen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(walGens) == 0 {
		if err := syncDir(d.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	d.wal, d.walGen = f, gen
	// The resumed segment is live, not retired: its size still grows.
	delete(d.retired, gen)
	os.Remove(filepath.Join(d.opts.Dir, manifestTmpFile))
	return nil
}

// recoverSegments loads the manifest and the segment files it names —
// the store's recovery root — before the WAL scan. Live segments are
// verified STRICTLY: once the checkpoint that sealed a segment has
// retired the WAL behind it, the file is the only copy, so a missing or
// damaged one must fail Open loudly rather than silently dropping a
// window. Staged segments (bootstrap scaffolding) are loaded leniently:
// a bad one is just refetched. Files a crashed checkpoint or bootstrap
// left unreferenced are swept last.
func (d *Disk) recoverSegments() error {
	doc, present, err := loadManifest(d.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !present {
		// Nothing sealed yet (a fresh directory, or one written before
		// the tier existed). A crash during the very first seal can leave
		// a segment file (or its torn tmp) with no manifest referencing
		// it; the WAL still holds every record, so the orphan is
		// re-derivable.
		d.removeUnreferencedSegments(manifestDoc{})
		return nil
	}
	d.baseGen = doc.BaseGen
	// Every live segment is read in full — framing, checksum, every
	// entry — to verify it and to map its ids; its entries stay in the
	// file.
	sealed := 0
	for _, m := range doc.Segments {
		sealed += m.Count
	}
	d.segIDs = make(map[uint64]int64, sealed)
	for _, t := range doc.Tombstones {
		d.addTombLocked(t.ID, t.Window)
	}
	for _, m := range doc.Segments {
		if err := d.walkSegmentFile(segmentFileName(m.Window, m.Seq), m, func(e index.Entry, _, _ []byte) {
			if !d.tombHasLocked(e.ID, m.Window) {
				d.segIDs[e.ID] = m.Window
			}
		}); err != nil {
			return fmt.Errorf("store: live segment: %w", err)
		}
		d.segs[m.Window] = m
	}
	for _, m := range doc.Staged {
		name := stagedFileName(m.Window, m.Seq)
		path := filepath.Join(d.opts.Dir, name)
		if _, err := os.Stat(path); err != nil {
			// A crashed FinishTieredBootstrap may have promoted the file
			// already; accept the live-named twin if it still verifies and
			// no live segment claims that name.
			alt := segmentFileName(m.Window, m.Seq)
			if seg, ok := d.segs[m.Window]; !ok || seg.Seq != m.Seq {
				if rerr := d.walkSegmentFile(alt, m, nil); rerr == nil {
					if rerr := os.Rename(filepath.Join(d.opts.Dir, alt), path); rerr == nil {
						d.staged = append(d.staged, m)
						continue
					}
				}
			}
			d.log.Warn("store: dropping missing staged segment", "window", m.Window, "seq", m.Seq)
			continue
		}
		if err := d.walkSegmentFile(name, m, nil); err != nil {
			d.log.Warn("store: dropping damaged staged segment",
				"window", m.Window, "seq", m.Seq, "err", err)
			os.Remove(path)
			continue
		}
		d.staged = append(d.staged, m)
	}
	d.removeUnreferencedSegments(manifestDoc{Segments: d.manifestDocLocked().Segments, Staged: d.staged})
	return nil
}

// apply folds one replayed record into the state map. Replay is
// idempotent: a re-registered id overwrites, a missing removal is a
// no-op — so replay can never fail on what the segments already
// hold.
func (d *Disk) apply(rec Record) {
	switch rec.Op {
	case opRegister:
		for _, e := range rec.Entries {
			d.state[e.ID] = e
		}
	case opRemove:
		for _, id := range rec.IDs {
			delete(d.state, id)
			// A removal whose target was sealed must suppress the sealed
			// copy too — the one rule that makes idempotent replay and
			// live appends agree under tiering.
			if w, ok := d.segIDs[id]; ok {
				d.addTombLocked(id, w)
			}
		}
	}
}

// AppendRegister implements Store.
func (d *Disk) AppendRegister(entries []index.Entry) error {
	return d.append(Record{Op: opRegister, Entries: entries})
}

// AppendRemove implements Store.
func (d *Disk) AppendRemove(ids []uint64) error {
	return d.append(Record{Op: opRemove, IDs: ids})
}

// AppendRegisterTraced implements Store: the register batch is
// journaled with the originating trace ID stamped into the record.
func (d *Disk) AppendRegisterTraced(entries []index.Entry, trace string) error {
	return d.append(Record{Op: opRegister, Entries: entries, Trace: trace})
}

// AppendRemoveTraced implements Store.
func (d *Disk) AppendRemoveTraced(ids []uint64, trace string) error {
	return d.append(Record{Op: opRemove, IDs: ids, Trace: trace})
}

// append journals one record and folds it into the state map. The
// record hits the page cache before the state map changes, and the
// state map changes before the append is acknowledged — so a nil
// return means "recoverable under the configured fsync policy".
func (d *Disk) append(rec Record) error {
	var buf bytes.Buffer
	if err := appendRecord(&buf, rec); err != nil {
		return err // validation failure: nothing recorded
	}
	d.mu.Lock()
	err := d.appendLocked(rec, &buf)
	d.mu.Unlock()
	return err
}

// appendLocked is append's critical section: runs under d.mu.
func (d *Disk) appendLocked(rec Record, buf *bytes.Buffer) error {
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return d.failed
	}
	if _, err := d.wal.Write(buf.Bytes()); err != nil {
		// A short write leaves garbage at the tail; anything appended
		// after it would be unreachable at recovery. Fail the store
		// rather than silently journal into the void.
		d.failed = fmt.Errorf("store: wal append: %w", err)
		return d.failed
	}
	d.walSize += int64(buf.Len())
	d.walBytes.Add(int64(buf.Len()))
	d.appended++
	switch rec.Op {
	case opRegister:
		d.recRegister.Inc()
	case opRemove:
		d.recRemove.Inc()
	}
	switch d.opts.Fsync {
	case FsyncAlways:
		if err := d.syncLocked(); err != nil {
			return err
		}
	case FsyncInterval:
		d.dirty = true
	}
	d.apply(rec)
	d.notifyLocked()
	return nil
}

// notifyLocked wakes every WaitForLog tailer (d.mu held): the broadcast
// channel is closed and replaced, so a waiter that misses this edge
// re-checks the cursor against fresh state on its next loop.
func (d *Disk) notifyLocked() {
	close(d.notifyCh)
	d.notifyCh = make(chan struct{})
}

// syncLocked fsyncs the current segment, timing it into the fsync
// histogram. A sync failure is sticky: the page cache state is unknown
// afterwards, so no further append may be acknowledged (d.mu held).
func (d *Disk) syncLocked() error {
	start := time.Now()
	if err := d.wal.Sync(); err != nil {
		d.failed = fmt.Errorf("store: wal fsync: %w", err)
		return d.failed
	}
	d.fsyncHist.Observe(time.Since(start).Seconds())
	d.dirty = false
	return nil
}

// ReadEntries implements Store: the visible set is the memtable plus
// every sealed entry that is neither tombstoned nor shadowed by a
// memtable copy of the same id (visibleEntries). The memtable,
// tombstones and segment metas are copied under d.mu; the sealed
// entries are then read from their files with only cpMu held, so
// appends wait for the copy, not for the file I/O. A file that fails to
// read fails the call.
func (d *Disk) ReadEntries() ([]index.Entry, error) {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	d.mu.Lock()
	segs := make([]SegmentMeta, 0, len(d.segs))
	for _, m := range d.segs {
		segs = append(segs, m)
	}
	mem := maps.Clone(d.state)
	dead := make(map[Tombstone]struct{}, d.tombCount)
	for id, ws := range d.tombs {
		for _, w := range ws {
			dead[Tombstone{ID: id, Window: w}] = struct{}{}
		}
	}
	d.mu.Unlock()
	return visibleEntries(segs, dead, mem, func(m SegmentMeta, fn func(index.Entry)) error {
		var names providerNames
		return d.walkSegmentFile(segmentFileName(m.Window, m.Seq), m, func(e index.Entry, prov, _ []byte) {
			e.Provider = names.intern(prov)
			fn(e)
		})
	})
}

// Entries is ReadEntries for callers that only count or compare: a
// segment file that cannot be read is logged and yields nil.
func (d *Disk) Entries() []index.Entry {
	entries, err := d.ReadEntries()
	if err != nil {
		d.log.Error("store: read entries", "err", err)
		return nil
	}
	return entries
}

// Len returns the number of committed (visible) entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.state) + d.visibleSealedLocked()
}

// Durable implements Store.
func (d *Disk) Durable() bool { return true }

// usableLocked returns the error a closed or failed store answers a
// checkpoint or bootstrap with, nil when it is usable (d.mu held).
func (d *Disk) usableLocked() error {
	if d.closed {
		return ErrClosed
	}
	return d.failed
}

// removeObsolete deletes the log generations below base.
func (d *Disk) removeObsolete(base uint64) {
	names, err := os.ReadDir(d.opts.Dir)
	if err != nil {
		return
	}
	for _, de := range names {
		if g, ok := parseGen(de.Name(), "wal-", ".log"); ok && g < base {
			os.Remove(filepath.Join(d.opts.Dir, de.Name()))
		}
	}
}

// checkpointLoop checkpoints every interval, skipping idle periods.
func (d *Disk) checkpointLoop(interval time.Duration) {
	defer d.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			d.mu.Lock()
			idle := d.appended == 0
			d.mu.Unlock()
			if idle {
				continue
			}
			if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				d.log.Error("store: background checkpoint failed", "err", err)
			}
		}
	}
}

// fsyncLoop syncs dirty appends every period (FsyncInterval policy).
func (d *Disk) fsyncLoop(every time.Duration) {
	defer d.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			d.mu.Lock()
			if d.dirty && d.failed == nil && !d.closed {
				if err := d.syncLocked(); err != nil {
					d.log.Error("store: interval fsync failed", "err", err)
				}
			}
			d.mu.Unlock()
		}
	}
}

// DiskHealth is a point-in-time snapshot of the store's operational
// condition, consumed by the server's health checker.
type DiskHealth struct {
	// Failed is the sticky write/fsync failure, nil when healthy. Once
	// set, every append fails and durability is gone.
	Failed error
	Closed bool
	// WALBytes is the live segment's size; Generation its number.
	WALBytes   int64
	Generation uint64
	// AppendedSinceCheckpoint counts records journaled since the last
	// checkpoint; SinceCheckpoint is how long ago that checkpoint (or
	// boot) was.
	AppendedSinceCheckpoint int64
	SinceCheckpoint         time.Duration
	// CheckpointInterval is the configured background period (<= 0 when
	// background checkpointing is disabled). Fsync is the sync policy.
	CheckpointInterval time.Duration
	Fsync              FsyncPolicy
	// The segment tier: sealed files and the memtable beside them.
	Segments        int
	SegmentBytes    int64
	MemtableEntries int
}

// Health reports the store's operational condition.
func (d *Disk) Health() DiskHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := DiskHealth{
		Failed:                  d.failed,
		Closed:                  d.closed,
		WALBytes:                d.walSize,
		Generation:              d.walGen,
		AppendedSinceCheckpoint: d.appended,
		SinceCheckpoint:         time.Since(d.lastCP),
		CheckpointInterval:      d.opts.CheckpointInterval,
		Fsync:                   d.opts.Fsync,
		Segments:                len(d.segs),
		MemtableEntries:         len(d.state),
	}
	for _, m := range d.segs {
		h.SegmentBytes += m.Bytes
	}
	return h
}

// InjectFault marks the store failed with err, exactly as a real WAL
// write/fsync failure would — sticky, failing every subsequent append.
// Fault-injection hook for health/e2e tests and operational drills; a
// nil err defaults to a generic injected failure.
func (d *Disk) InjectFault(err error) {
	if err == nil {
		err = errors.New("store: injected fault")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed == nil {
		d.failed = err
	}
}

// Close implements Store: stops the background loops, syncs the log,
// and closes the segment. It does not checkpoint; call Checkpoint first
// for a fast next boot.
func (d *Disk) Close() error {
	d.stopOnce.Do(func() { close(d.done) })
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.failed == nil && d.opts.Fsync != FsyncNever {
		err = d.wal.Sync()
	}
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileSync creates path, fills it via fill, and fsyncs it before
// closing — the write half of the write-fsync-rename dance.
func writeFileSync(path string, fill func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creations in it are
// durable. Filesystems that refuse directory fsync are tolerated.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		var perr *fs.PathError
		if errors.As(err, &perr) {
			return nil
		}
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
