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
//     data directory. The log from the manifest's BaseGen on is the
//     memtable: RAM keeps only its ids. A checkpoint reads the rotated
//     log, seals it into immutable per-window segment files (tiered.go,
//     segfile.go) and moves the manifest's WAL base past it; recovery
//     reads the manifest, its segments and the WAL from the manifest's
//     BaseGen on, truncating a torn final record.
//
// Neither hands out the visible set as a slice: ReadEntries (boot) and
// FinishBootstrap (a follower's bootstrap) stream each visible entry to
// a sink as they walk the segments, so the only whole-state copy built
// is the index the server loads from the stream. (ReadEntries still
// folds the un-checkpointed entries from the log into a map first.)
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
//	staged-W-S.fovg   — a follower's fetched segment, its own install record
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
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"fovr/internal/idset"
	"fovr/internal/index"
	"fovr/internal/obs"
)

// Store is the server's state-change journal. The server routes every
// mutation through it before acknowledging, and at boot builds its
// index from what ReadEntries streams.
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
	// HighID returns the largest id any register record this store
	// journaled ever carried, removed or not, so a restarted server
	// hands out no id twice. Non-durable stores return 0.
	HighID() uint64
	// ReadEntries hands sink each entry of the committed state
	// (recovered plus appended), in unspecified order, and stops at the
	// first error sink returns, returning it. The entry is the store's
	// to reuse once sink returns. Non-durable stores hand over nothing.
	// A durable store reads files to answer; one it cannot read is an
	// error, never a silently smaller state. Len is how many entries it
	// hands over.
	ReadEntries(sink func(*index.Entry) error) error
	Len() int
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
	// is fetched and installed — verified against its meta; the store
	// may keep raw — and then FinishBootstrap replaces the state with
	// those segments less the manifest's tombstones, over an empty
	// memtable, handing sink each visible entry as ReadEntries does.
	// An error sink returns aborts the finish before it replaces
	// anything. Disk stages installs durably; Mem holds them in RAM.
	HasSegment(window int64, seq uint64, crc uint32) bool
	InstallSegment(meta SegmentMeta, raw []byte) error
	FinishBootstrap(ms ManifestSnapshot, sink func(*index.Entry) error) error
}

// ErrNotDurable is returned by operations that need a data directory
// from a store that has none.
var ErrNotDurable = errors.New("store: not durable (no data directory configured)")

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("store: closed")

// ErrFailed marks the sticky failure of a store whose log write or fsync
// failed, or that InjectFault failed: it refuses every later append.
var ErrFailed = errors.New("store: failed")

// Mem is the non-durable store: every journal operation is a no-op,
// preserving the server's historical in-memory behavior when no data
// directory is configured. The server keeps using its index as the
// source of truth. The one thing Mem holds is a replication follower's
// bootstrap in flight: the verified images installed so far.
type Mem struct {
	mu     sync.Mutex
	staged map[SegmentMeta][]byte
}

// NewMem returns the non-durable store.
func NewMem() *Mem { return &Mem{} }

func (*Mem) AppendRegister([]index.Entry) error { return nil }
func (*Mem) AppendRemove([]uint64) error        { return nil }

// Traced appends are equally no-ops: nothing is journaled, so there is
// nothing to stamp.
func (*Mem) AppendRegisterTraced([]index.Entry, string) error { return nil }
func (*Mem) AppendRemoveTraced([]uint64, string) error        { return nil }
func (*Mem) ReadEntries(func(*index.Entry) error) error       { return nil }
func (*Mem) Len() int                                         { return 0 }
func (*Mem) HighID() uint64                                   { return 0 }
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
		o.Logger = obs.Discard
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
	mem       idset.Map             // memtable id -> generation of its latest register record, about 2 B an id
	segs      map[int64]SegmentMeta // window key -> live sealed segment; written under cpMu too
	segIDs    idset.Map             // live (non-tombstoned) sealed id -> window, in pages of 64 ids, about 2 B an id
	tombs     map[uint64][]int64    // removed sealed id -> windows holding dead copies
	tombCount int                   // total (id, window) tombstone pairs
	baseGen   uint64                // first WAL generation the state replays
	highID    uint64                // largest id a register record ever carried
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
	digits, okPrefix := strings.CutPrefix(name, prefix)
	digits, okSuffix := strings.CutSuffix(digits, suffix)
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, okPrefix && okSuffix && err == nil
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
		segs:        make(map[int64]SegmentMeta),
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
	d.recoveredEntries = d.mem.Len() + d.visibleSealedLocked()
	// Boot counts as the checkpoint baseline: "checkpoint age" measures
	// un-checkpointed runtime, not directory age.
	d.lastCP = time.Now()
	reg.GaugeFunc("fovr_store_recovery_seconds", func() float64 { return d.recoveryDuration.Seconds() })
	reg.GaugeFunc("fovr_store_recovered_entries", func() float64 { return float64(d.recoveredEntries) })
	// The rest read under d.mu. The live log's size and generation let
	// leader and follower lag compare from /metrics on both sides.
	for name, f := range map[string]func() float64{
		"fovr_store_entries":          func() float64 { return float64(d.mem.Len() + d.visibleSealedLocked()) },
		"fovr_store_segment_count":    func() float64 { return float64(len(d.segs)) },
		"fovr_store_segment_bytes":    func() float64 { return float64(d.segmentBytesLocked()) },
		"fovr_store_segment_entries":  func() float64 { return float64(d.visibleSealedLocked()) },
		"fovr_store_memtable_entries": func() float64 { return float64(d.mem.Len()) },
		"fovr_wal_size_bytes":         func() float64 { return float64(d.walSize) },
		"fovr_wal_generation":         func() float64 { return float64(d.walGen) },
	} {
		reg.GaugeFunc(name, func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return f()
		})
	}
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
	// Resume appending to the newest generation, or start the first one.
	// The state replays from the oldest generation left, which is the
	// manifest's BaseGen unless no checkpoint has run.
	fresh := len(walGens) == 0
	if fresh {
		walGens = []uint64{max(d.baseGen, 1)}
	}
	d.baseGen, d.walGen = walGens[0], walGens[len(walGens)-1]
	if !fresh {
		valid, size, err := d.foldLog(d.baseGen, d.walGen, -1, func(gen uint64, rec Record) {
			d.apply(gen, rec)
			d.replayed.Inc()
		})
		if err != nil {
			return err
		}
		for i, n := range valid {
			d.retired[d.baseGen+uint64(i)] = n
		}
		if d.walSize = valid[len(valid)-1]; d.walSize < size {
			path := filepath.Join(d.opts.Dir, walName(d.walGen))
			d.log.Warn("store: truncating torn wal tail",
				"file", path, "validBytes", d.walSize, "droppedBytes", size-d.walSize)
			if err := os.Truncate(path, d.walSize); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			d.truncated.Inc()
		}
	}
	f, err := os.OpenFile(filepath.Join(d.opts.Dir, walName(d.walGen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if fresh {
		if err := syncDir(d.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	d.wal = f
	// The resumed segment is live, not retired: its size still grows.
	delete(d.retired, d.walGen)
	os.Remove(filepath.Join(d.opts.Dir, manifestTmpFile))
	return nil
}

// recoverSegments loads the manifest and the segment files it names —
// the store's recovery root — before the WAL scan. Live segments are
// verified STRICTLY: once the checkpoint that sealed a segment has
// retired the WAL behind it, the file is the only copy, so a missing or
// damaged one must fail Open loudly rather than silently dropping a
// window. Segment files a crashed checkpoint or bootstrap left
// unreferenced — with no manifest yet, every one: the WAL still holds
// each record of a first seal — are swept last; staged files stay for
// the bootstrap that resumes from them.
func (d *Disk) recoverSegments() error {
	doc, err := loadManifest(d.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.baseGen, d.highID = doc.BaseGen, doc.HighID
	// Every live segment is read in full — framing, checksum, every
	// entry — to verify it and to map its ids; its entries stay in the
	// file. Its ids also raise the mark, which a manifest written
	// before the mark existed lacks.
	for _, t := range doc.Tombstones {
		d.addTombLocked(t.ID, t.Window)
	}
	for _, m := range doc.Segments {
		if err := d.walkSegmentFile(segmentFileName(m.Window, m.Seq), m, func(e index.Entry, _, _ []byte) {
			d.highID = max(d.highID, e.ID)
			if !d.tombHasLocked(e.ID, m.Window) {
				d.segIDs.Put(e.ID, m.Window)
			}
		}); err != nil {
			return fmt.Errorf("store: live segment: %w", err)
		}
		d.segs[m.Window] = m
	}
	d.removeUnreferencedSegments(doc, false)
	return nil
}

// foldLog hands fn every record of log generations from..to, in order,
// with its generation: the one reader of the log, which recovery,
// ReadEntries and Checkpoint share. The last generation is read up to
// its first limit bytes (whole when limit < 0), every other one whole.
// It returns each generation's length in whole records and the length
// read of the last. Only recovery's whole read of the last may find a
// torn record, the caller's to truncate; any other tear, or a missing
// generation, means the directory was damaged.
func (d *Disk) foldLog(from, to uint64, limit int64, fn func(gen uint64, rec Record)) (valid []int64, size int64, err error) {
	for gen := from; gen <= to; gen++ {
		data, err := os.ReadFile(filepath.Join(d.opts.Dir, walName(gen)))
		if err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
		if gen == to && limit >= 0 {
			data = data[:min(int64(len(data)), limit)]
		}
		recs, n, err := DecodeWAL(data)
		if err != nil {
			return nil, 0, fmt.Errorf("store: %s: %w", walName(gen), err)
		}
		if gen != to && n < len(data) || gen == to && limit >= 0 && int64(n) != limit {
			return nil, 0, fmt.Errorf("%w: %s ends its whole records at %d", ErrCorrupt, walName(gen), n)
		}
		for _, rec := range recs {
			fn(gen, rec)
		}
		valid, size = append(valid, int64(n)), int64(len(data))
	}
	return valid, size, nil
}

// memtableAt folds the log from generation base up to (gen, size) into
// the n entries it leaves registered: the memtable as of that position.
func (d *Disk) memtableAt(base, gen uint64, size int64, n int) (map[uint64]index.Entry, error) {
	mem := make(map[uint64]index.Entry, n)
	_, _, err := d.foldLog(base, gen, size, func(_ uint64, rec Record) {
		for _, e := range rec.Entries {
			mem[e.ID] = e
		}
		for _, id := range rec.IDs {
			delete(mem, id)
		}
	})
	return mem, err
}

// apply folds one record of generation gen into the memtable's ids,
// the id mark and the tombstones (d.mu held). Replay is idempotent: a
// re-registered id takes the newer generation, a missing removal is a
// no-op — so replay can never fail on what the segments already hold.
func (d *Disk) apply(gen uint64, rec Record) {
	switch rec.Op {
	case opRegister:
		for _, e := range rec.Entries {
			d.mem.Put(e.ID, int64(gen))
			d.highID = max(d.highID, e.ID)
		}
	case opRemove:
		for _, id := range rec.IDs {
			d.mem.Delete(id)
			// A removal whose target was sealed must suppress the sealed
			// copy too — the one rule that makes idempotent replay and
			// live appends agree under tiering.
			if w, ok := d.segIDs.Get(id); ok {
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

// append journals one record and folds it into the memtable's ids. The
// record hits the page cache before the ids change, and the ids change
// before the append is acknowledged — so a nil return means
// "recoverable under the configured fsync policy".
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
		d.failed = fmt.Errorf("%w: wal append: %w", ErrFailed, err)
		return d.failed
	}
	d.walSize += int64(buf.Len())
	d.walBytes.Add(int64(buf.Len()))
	d.appended++
	// The ids follow the log's committed size, which a failed sync
	// below does not take back.
	d.apply(d.walGen, rec)
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
		d.failed = fmt.Errorf("%w: wal fsync: %w", ErrFailed, err)
		return d.failed
	}
	d.fsyncHist.Observe(time.Since(start).Seconds())
	d.dirty = false
	return nil
}

// ReadEntries implements Store: the visible set is the memtable plus
// every sealed entry that is neither tombstoned nor shadowed by a
// memtable copy of the same id (visibleEntries). The manifest document
// and the log cursor are copied under d.mu; the memtable is then folded
// from the log up to that cursor and the sealed entries read from their
// files, with only cpMu held, so appends wait for the copy, not for the
// file I/O. A file that fails to read fails the call.
func (d *Disk) ReadEntries(sink func(*index.Entry) error) error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	d.mu.Lock()
	doc := d.manifestDocLocked()
	base, gen, size, n := d.baseGen, d.walGen, d.walSize, d.mem.Len()
	d.mu.Unlock()
	mem, err := d.memtableAt(base, gen, size, n)
	if err != nil {
		return err
	}
	return visibleEntries(doc.Segments, tombstoneSet(doc.Tombstones), mem, func(m SegmentMeta, fn func(e index.Entry, prov, rec []byte)) error {
		return d.walkSegmentFile(segmentFileName(m.Window, m.Seq), m, fn)
	}, sink)
}

// Entries is ReadEntries collected, for callers that only count or
// compare: a segment file that cannot be read is logged and yields nil.
func (d *Disk) Entries() []index.Entry {
	entries := make([]index.Entry, 0, d.Len())
	if err := d.ReadEntries(func(e *index.Entry) error {
		entries = append(entries, *e)
		return nil
	}); err != nil {
		d.log.Error("store: read entries", "err", err)
		return nil
	}
	return entries
}

// Len implements Store: the number of committed (visible) entries,
// counted without reading a file.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem.Len() + d.visibleSealedLocked()
}

// Durable implements Store.
func (d *Disk) Durable() bool { return true }

// HighID implements Store: the manifest's mark folded with the ids of
// the live segments and of every register record replayed or appended
// since.
func (d *Disk) HighID() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.highID
}

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
	return DiskHealth{
		Failed:                  d.failed,
		Closed:                  d.closed,
		WALBytes:                d.walSize,
		Generation:              d.walGen,
		AppendedSinceCheckpoint: d.appended,
		SinceCheckpoint:         time.Since(d.lastCP),
		CheckpointInterval:      d.opts.CheckpointInterval,
		Fsync:                   d.opts.Fsync,
		Segments:                len(d.segs),
		SegmentBytes:            d.segmentBytesLocked(),
		MemtableEntries:         d.mem.Len(),
	}
}

// InjectFault marks the store failed with err, exactly as a real WAL
// write/fsync failure would — sticky, failing every subsequent append
// with an error that wraps both ErrFailed and err.
// Fault-injection hook for health/e2e tests and operational drills; a
// nil err defaults to a generic injected failure.
func (d *Disk) InjectFault(err error) {
	if err == nil {
		err = errors.New("injected fault")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed == nil {
		d.failed = fmt.Errorf("%w: %w", ErrFailed, err)
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
