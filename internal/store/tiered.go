// The segment tier: everything Disk does beyond the WAL + memtable
// pair. A time window cold for Options.SegmentWindowAge is sealed.
//
// Data model. The memtable (d.state) holds the mutable working set;
// cold time windows are sealed into immutable segment files (one per
// window, segfile.go) named by the manifest (manifest.go). The visible
// entry set is:
//
//	memtable ∪ { sealed entry e in window w :
//	             no tombstone (e.ID, w) and e.ID not in memtable }
//
// The memtable always shadows a sealed copy of the same ID, and a
// tombstone suppresses a sealed copy outright (visibleEntries is the one
// implementation of that rule). WAL replay therefore stays an
// idempotent fold into the memtable, and correctness lives at read
// time. Replay after a crash can re-create memtable copies of
// already-sealed entries ("shadows"); they are correct (deduplicated on
// read) and the next flush of that window retires them.
//
// flushWindow is the single primitive behind both sealing and
// compaction: it merges a window's surviving sealed copies with its
// memtable entries into a fresh segment file (sequence+1), commits the
// swap in RAM, rotates the manifest, then deletes the superseded file.
// The WAL is never truncated by a flush — only a checkpoint retires
// WAL generations, and Checkpoint writes the manifest before the
// checkpoint rename so every tombstone is durable in at least one of
// the two (see manifest.go).
//
// Residency. A sealed entry lives only in its segment file; in RAM the
// store keeps each segment's manifest meta and the id→window map
// (segIDs). Whoever needs sealed entries reads them from the files
// while holding cpMu, which every file replacement (flush, checkpoint,
// bootstrap) also holds, so the files a reader was pointed at
// stay put. Lock order is cpMu, then d.mu — never the reverse — and no
// file is read or written under d.mu: the append path never waits on
// segment I/O.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fovr/internal/index"
)

// windowKeyOf returns the time-window key an entry seals into, and
// false for entries longer than the window — those stay memtable
// residents forever.
func (d *Disk) windowKeyOf(e index.Entry) (int64, bool) {
	if index.OverLong(e.Rep.StartMillis, e.Rep.EndMillis, d.segWindowMs) {
		return 0, false
	}
	return index.WindowKey(e.Rep.StartMillis, d.segWindowMs), true
}

// tombHasLocked reports whether (id, window) is tombstoned (d.mu held).
func (d *Disk) tombHasLocked(id uint64, window int64) bool {
	for _, w := range d.tombs[id] {
		if w == window {
			return true
		}
	}
	return false
}

// addTombLocked records that the sealed copy of id in window is dead,
// and drops the id from the live sealed map (d.mu held). Idempotent.
func (d *Disk) addTombLocked(id uint64, window int64) {
	if !d.tombHasLocked(id, window) {
		d.tombs[id] = append(d.tombs[id], window)
		d.tombCount++
	}
	if w, ok := d.segIDs[id]; ok && w == window {
		delete(d.segIDs, id)
	}
}

// dropTombLocked forgets the (id, window) tombstone (d.mu held).
func (d *Disk) dropTombLocked(id uint64, window int64) {
	ws := d.tombs[id]
	for i, w := range ws {
		if w == window {
			ws[i] = ws[len(ws)-1]
			d.tombs[id] = ws[:len(ws)-1]
			d.tombCount--
			break
		}
	}
	if len(d.tombs[id]) == 0 {
		delete(d.tombs, id)
	}
}

// visibleSealedLocked counts sealed entries the read path serves:
// total sealed minus tombstoned copies minus memtable shadows (d.mu
// held). Tombstones only ever reference live sealed copies (flush
// drops them with the copies), so each pair suppresses exactly one; a
// shadow is a memtable id that segIDs also names. O(segments +
// memtable): the sealed tier is never walked.
func (d *Disk) visibleSealedLocked() int {
	total := 0
	for _, m := range d.segs {
		total += m.Count
	}
	shadows := 0
	for id := range d.state {
		if _, ok := d.segIDs[id]; ok {
			shadows++
		}
	}
	return total - d.tombCount - shadows
}

// walkSegmentFile reads the segment file name (live or staged) with
// readSegmentFile and checks it against the meta that names it.
func (d *Disk) walkSegmentFile(name string, m SegmentMeta, fn func(e index.Entry, prov, rec []byte)) error {
	path := filepath.Join(d.opts.Dir, name)
	window, count, crc, size, err := readSegmentFile(path, fn)
	if err != nil {
		return err
	}
	if window != m.Window || count != m.Count || crc != m.CRC || size != m.Bytes {
		return fmt.Errorf("%w: segment %s does not match its manifest entry", ErrCorrupt, path)
	}
	return nil
}

// visibleEntries is the tier's visibility rule, the one implementation
// Disk.ReadEntries and Mem.FinishBootstrap share: every sealed entry —
// walk feeds one segment's entries, segments in window order — that no
// memtable entry of the same id shadows and no tombstone of its window
// suppresses, then the memtable.
func visibleEntries(segs []SegmentMeta, dead map[Tombstone]struct{}, mem map[uint64]index.Entry,
	walk func(m SegmentMeta, fn func(index.Entry)) error) ([]index.Entry, error) {
	sort.Slice(segs, func(i, j int) bool { return segs[i].Window < segs[j].Window })
	total := len(mem)
	for _, m := range segs {
		total += m.Count
	}
	entries := make([]index.Entry, 0, total)
	for _, m := range segs {
		err := walk(m, func(e index.Entry) {
			if _, shadowed := mem[e.ID]; shadowed {
				return
			}
			if _, removed := dead[Tombstone{ID: e.ID, Window: m.Window}]; removed {
				return
			}
			entries = append(entries, e)
		})
		if err != nil {
			return nil, fmt.Errorf("store: read sealed window %d: %w", m.Window, err)
		}
	}
	for _, e := range mem {
		entries = append(entries, e)
	}
	return entries, nil
}

// manifestDocLocked snapshots the on-disk manifest document (d.mu
// held).
func (d *Disk) manifestDocLocked() manifestDoc {
	doc := manifestDoc{Version: manifestVersion}
	for _, m := range d.segs {
		doc.Segments = append(doc.Segments, m)
	}
	sort.Slice(doc.Segments, func(i, j int) bool { return doc.Segments[i].Window < doc.Segments[j].Window })
	doc.Staged = append(doc.Staged, d.staged...)
	for id, ws := range d.tombs {
		for _, w := range ws {
			doc.Tombstones = append(doc.Tombstones, Tombstone{ID: id, Window: w})
		}
	}
	sort.Slice(doc.Tombstones, func(i, j int) bool {
		if doc.Tombstones[i].ID != doc.Tombstones[j].ID {
			return doc.Tombstones[i].ID < doc.Tombstones[j].ID
		}
		return doc.Tombstones[i].Window < doc.Tombstones[j].Window
	})
	return doc
}

// eligibleWindows returns every window a flush would change: sealed
// windows carrying tombstones or shadowed/late memtable entries, plus
// unsealed windows that closed more than the configured age ago.
func (d *Disk) eligibleWindows(nowMillis int64) []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	set := make(map[int64]struct{})
	for _, ws := range d.tombs {
		for _, w := range ws {
			set[w] = struct{}{}
		}
	}
	for _, e := range d.state {
		k, ok := d.windowKeyOf(e)
		if !ok {
			continue
		}
		if _, sealedAlready := d.segs[k]; sealedAlready {
			// Late arrival or replay shadow in a sealed window: merge it
			// regardless of age.
			set[k] = struct{}{}
			continue
		}
		if (k+1)*d.segWindowMs+d.segAgeMs <= nowMillis {
			set[k] = struct{}{}
		}
	}
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CompactionBacklog returns how many windows are currently flushable.
func (d *Disk) CompactionBacklog() int {
	return len(d.eligibleWindows(time.Now().UnixMilli()))
}

// CompactNow flushes every currently eligible window synchronously —
// what one compaction-loop tick does; tests and benchmarks drive the
// tier with it.
func (d *Disk) CompactNow() error {
	for _, k := range d.eligibleWindows(time.Now().UnixMilli()) {
		if err := d.flushWindow(k); err != nil {
			return err
		}
	}
	return nil
}

// compactionLoop is the background seal/compaction worker.
func (d *Disk) compactionLoop(interval time.Duration) {
	defer d.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			if err := d.CompactNow(); err != nil && !errors.Is(err, ErrClosed) {
				d.log.Error("store: compaction failed", "err", err)
			}
		}
	}
}

// flushWindow seals or compacts one time window: merge the window's
// surviving sealed copies with its captured memtable entries, write the
// next-sequence segment file, commit the swap, rotate the manifest,
// delete the superseded file. Serialized with checkpoints on cpMu; the
// read of the old file and the encode+write run without holding d.mu,
// and every interleaving with concurrent appends/removes is resolved at
// commit.
func (d *Disk) flushWindow(k int64) error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	start := time.Now()

	// Capture.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.failed != nil {
		d.mu.Unlock()
		return d.failed
	}
	old, sealed := d.segs[k]
	memK := make(map[uint64]index.Entry)
	for id, e := range d.state {
		if w, ok := d.windowKeyOf(e); ok && w == k {
			memK[id] = e
		}
	}
	tombK := make(map[uint64]struct{})
	for id, ws := range d.tombs {
		for _, w := range ws {
			if w == k {
				tombK[id] = struct{}{}
			}
		}
	}
	seq := uint64(1)
	if sealed {
		seq = old.Seq + 1
	}
	d.mu.Unlock()
	if !sealed && len(memK) == 0 {
		return nil
	}

	// Merge and write the new segment, unlocked. The old file is
	// re-verified as it is read; its survivors keep their encoded bytes.
	// Sealed copies lose to both tombstones and memtable shadows; the
	// memtable copy is the one that moves into the new file.
	fresh := make([]index.Entry, 0, len(memK))
	for _, e := range memK {
		fresh = append(fresh, e)
	}
	b, err := newBlockBuilder(fresh)
	if err != nil {
		return err
	}
	if sealed {
		if err := d.walkSegmentFile(segmentFileName(k, old.Seq), old, func(e index.Entry, _, rec []byte) {
			if _, dead := tombK[e.ID]; dead {
				return
			}
			if _, shadowed := memK[e.ID]; shadowed {
				return
			}
			b.splice(e.ID, rec)
		}); err != nil {
			return fmt.Errorf("store: compact window %d: %w", k, err)
		}
	}
	block, count := b.finish()
	var newMeta SegmentMeta
	wrote := count > 0
	if wrote {
		img, crc, err := frameSegment(k, count, block)
		if err != nil {
			return err
		}
		name := segmentFileName(k, seq)
		tmp := filepath.Join(d.opts.Dir, name+".tmp")
		if err := writeFileSync(tmp, func(w *os.File) error {
			_, werr := w.Write(img)
			return werr
		}); err != nil {
			return fmt.Errorf("store: write segment %s: %w", name, err)
		}
		if err := os.Rename(tmp, filepath.Join(d.opts.Dir, name)); err != nil {
			return fmt.Errorf("store: publish segment %s: %w", name, err)
		}
		if err := syncDir(d.opts.Dir); err != nil {
			return err
		}
		newMeta = SegmentMeta{Window: k, Seq: seq, Count: count, Bytes: int64(len(img)), CRC: crc}
		d.segWrittenBytes.Add(int64(len(img)))
	}

	// Commit. Appends and removes may have run since the capture; the
	// rules below make every interleaving land on the visibility
	// invariant.
	d.mu.Lock()
	if d.closed || d.failed != nil {
		err := d.failed
		if err == nil {
			err = ErrClosed
		}
		d.mu.Unlock()
		return err
	}
	// A captured id whose previous sealed copy lives in ANOTHER window
	// just moved here: tombstone that copy or it would resurrect once
	// the memtable entry retires.
	for id := range memK {
		if w, ok := d.segIDs[id]; ok && w != k {
			d.addTombLocked(id, w)
		}
	}
	if wrote {
		d.segs[k] = newMeta
		// Survivors are already mapped to k (or were tombstoned while we
		// wrote, which unmapped them); the captured memtable ids join.
		for id := range memK {
			d.segIDs[id] = k
		}
	} else {
		delete(d.segs, k)
	}
	// The captured tombstones' targets are gone from the new file; newer
	// tombstones (raced in during the write) stay.
	for id := range tombK {
		d.dropTombLocked(id, k)
	}
	for id, captured := range memK {
		cur, ok := d.state[id]
		switch {
		case !ok:
			// Removed while we flushed: the remove keeps winning over the
			// fresh sealed copy.
			d.addTombLocked(id, k)
		case cur == captured:
			delete(d.state, id)
		default:
			// Re-registered while we flushed: the memtable copy shadows
			// the sealed one until this window's next flush.
		}
	}
	doc := d.manifestDocLocked()
	d.mu.Unlock()

	// The manifest rotation publishes the swap; only then is the old
	// file garbage. A failure here is not sticky — the old manifest
	// still names a consistent (pre-flush) state, and the next rotation
	// converges.
	if err := saveManifest(d.opts.Dir, doc); err != nil {
		d.cpErrors.Inc()
		return fmt.Errorf("store: rotate manifest: %w", err)
	}
	if sealed {
		os.Remove(filepath.Join(d.opts.Dir, segmentFileName(k, old.Seq)))
	}
	d.compactions.Inc()
	d.log.Info("store sealed window",
		"window", k, "seq", seq, "entries", count,
		"bytes", newMeta.Bytes, "elapsed", time.Since(start).Round(time.Millisecond))
	return nil
}

// TieredStats is the storage panel's data: per-tier sizes and the
// compaction backlog (served on /stats and rendered by fovctl
// storage).
type TieredStats struct {
	SegmentWindowMillis int64 `json:"segmentWindowMillis"`
	Segments            int   `json:"segments"`
	SegmentBytes        int64 `json:"segmentBytes"`
	SegmentEntries      int   `json:"segmentEntries"`
	MemtableEntries     int   `json:"memtableEntries"`
	Tombstones          int   `json:"tombstones"`
	StagedSegments      int   `json:"stagedSegments"`
	CompactionBacklog   int   `json:"compactionBacklog"`
	Compactions         int64 `json:"compactions"`
}

// TieredStats reports the segment tier's current shape.
func (d *Disk) TieredStats() TieredStats {
	backlog := d.CompactionBacklog()
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := TieredStats{
		SegmentWindowMillis: d.segWindowMs,
		Segments:            len(d.segs),
		SegmentEntries:      d.visibleSealedLocked(),
		MemtableEntries:     len(d.state),
		Tombstones:          d.tombCount,
		StagedSegments:      len(d.staged),
		CompactionBacklog:   backlog,
		Compactions:         d.compactions.Value(),
	}
	for _, m := range d.segs {
		ts.SegmentBytes += m.Bytes
	}
	return ts
}
