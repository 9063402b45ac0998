// The segment tier: everything Disk does beyond the WAL + memtable
// pair. A checkpoint seals the memtable, every window of it.
//
// Data model. The memtable (d.state) holds what was appended since the
// last checkpoint; everything older lives in immutable segment files
// (one per time window, segfile.go) named by the manifest
// (manifest.go). The visible entry set is:
//
//	memtable ∪ { sealed entry e in window w :
//	             no tombstone (e.ID, w) and e.ID not in memtable }
//
// The memtable always shadows a sealed copy of the same ID, and a
// tombstone suppresses a sealed copy outright (visibleEntries is the one
// implementation of that rule). WAL replay therefore stays an
// idempotent fold into the memtable, and correctness lives at read
// time.
//
// Checkpoint is the one writer of segments: it merges each affected
// window's surviving sealed copies with its captured memtable entries
// into a fresh segment file (sequence+1), commits every window and the
// new WAL base generation together in RAM, rotates the manifest, then
// deletes the retired WAL and the superseded files. An entry seals
// into the window its start falls in, however long it runs, so no entry
// is memtable-resident past the next checkpoint, and the image cap
// (maxSegmentBlock) bounds one window, not all unsealed data.
//
// Residency. A sealed entry lives only in its segment file; in RAM the
// store keeps each segment's manifest meta and the id→window map
// (segIDs). Whoever needs sealed entries reads them from the files
// while holding cpMu, which every file replacement (checkpoint,
// segment install, bootstrap) also holds, so the files a reader was
// pointed at stay put. Lock order is cpMu, then d.mu — never the
// reverse — and no file is read or written under d.mu: the append path
// never waits on segment I/O.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"fovr/internal/index"
)

// windowKeyOf returns the time-window key an entry seals into: the
// window its start falls in, however long the entry runs.
func (d *Disk) windowKeyOf(e index.Entry) int64 {
	return index.WindowKey(e.Rep.StartMillis, d.segWindowMs)
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
// held). Tombstones only ever reference live sealed copies (a
// checkpoint drops them with the copies), so each pair suppresses
// exactly one; a shadow is a memtable id that segIDs also names.
// O(segments + memtable): the sealed tier is never walked.
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
	doc.BaseGen = d.baseGen
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

// windowCapture is one window a checkpoint seals: what it captured
// under d.mu, and the segment it wrote.
type windowCapture struct {
	window int64
	old    SegmentMeta // the live segment being superseded, when sealed
	sealed bool
	// mem holds the captured memtable entries that seal into the window.
	mem map[uint64]index.Entry
	// dead holds the ids whose sealed copy in this window the new file
	// drops: the captured tombstones, and every copy a memtable entry
	// of the same id shadows, whichever window that entry seals into.
	dead  map[uint64]struct{}
	meta  SegmentMeta // the written segment, when wrote
	wrote bool
}

// captureLocked groups the memtable and the tombstones by the window
// each affects (d.mu held).
func (d *Disk) captureLocked() map[int64]*windowCapture {
	caps := make(map[int64]*windowCapture)
	get := func(k int64) *windowCapture {
		c, ok := caps[k]
		if !ok {
			c = &windowCapture{window: k, mem: make(map[uint64]index.Entry), dead: make(map[uint64]struct{})}
			c.old, c.sealed = d.segs[k]
			caps[k] = c
		}
		return c
	}
	for id, e := range d.state {
		get(d.windowKeyOf(e)).mem[id] = e
		if w, ok := d.segIDs[id]; ok {
			get(w).dead[id] = struct{}{}
		}
	}
	for id, ws := range d.tombs {
		for _, w := range ws {
			get(w).dead[id] = struct{}{}
		}
	}
	return caps
}

// writeWindow merges the window's surviving sealed copies with its
// captured memtable entries into the next-sequence segment file and
// renames it into place, unreferenced until the commit. The old file
// is re-verified as it is read; its survivors keep their encoded bytes.
func (d *Disk) writeWindow(c *windowCapture) error {
	fresh := make([]index.Entry, 0, len(c.mem))
	for _, e := range c.mem {
		fresh = append(fresh, e)
	}
	b, err := newBlockBuilder(fresh)
	if err != nil {
		return err
	}
	seq := uint64(1)
	if c.sealed {
		seq = c.old.Seq + 1
		if err := d.walkSegmentFile(segmentFileName(c.window, c.old.Seq), c.old, func(e index.Entry, _, rec []byte) {
			if _, dead := c.dead[e.ID]; !dead {
				b.splice(e.ID, rec)
			}
		}); err != nil {
			return fmt.Errorf("store: seal window %d: %w", c.window, err)
		}
	}
	block, count := b.finish()
	if count == 0 {
		return nil
	}
	img, crc, err := frameSegment(c.window, count, block)
	if err != nil {
		return err
	}
	name := segmentFileName(c.window, seq)
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
	c.meta, c.wrote = SegmentMeta{Window: c.window, Seq: seq, Count: count, Bytes: int64(len(img)), CRC: crc}, true
	d.segWrittenBytes.Add(int64(len(img)))
	return nil
}

// commitWindowLocked swaps one written window into the live set (d.mu
// held). Appends and removes may have run since the capture; the rules
// below land every interleaving on the visibility invariant, and the
// result does not depend on the order windows commit in.
func (d *Disk) commitWindowLocked(c *windowCapture) {
	if c.wrote {
		d.segs[c.window] = c.meta
	} else {
		delete(d.segs, c.window)
	}
	// The dead copies are gone from the new file, and with them every
	// tombstone naming them — including one a remove raced in.
	for id := range c.dead {
		d.dropTombLocked(id, c.window)
		if w, ok := d.segIDs[id]; ok && w == c.window {
			delete(d.segIDs, id)
		}
	}
	for id, captured := range c.mem {
		d.segIDs[id] = c.window
		cur, ok := d.state[id]
		switch {
		case !ok:
			// Removed while we wrote: the remove keeps winning over the
			// fresh sealed copy.
			d.addTombLocked(id, c.window)
		case cur == captured:
			delete(d.state, id)
		default:
			// Re-registered while we wrote: the memtable copy shadows the
			// sealed one until the next checkpoint.
		}
	}
	d.compactions.Inc()
}

// Checkpoint implements Store by sealing: under d.mu it rotates the
// WAL to G+1 and captures the memtable and tombstones; with no lock
// held it writes one merged segment per captured window; in one d.mu
// section it commits every window together with BaseGen = G+1. It then
// saves the manifest, and only then deletes the WAL below G+1 and the
// segment files the manifest no longer names. Appends wait for the
// rotation and the commit, never for segment I/O.
//
// A crash anywhere before the manifest rename recovers from the old
// manifest and the WAL from its BaseGen, which nothing has deleted; a
// crash after it recovers from the new one. Files the crash left
// unreferenced are swept on open.
func (d *Disk) Checkpoint() error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	start := time.Now()

	// Rotate and capture.
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	newGen := d.walGen + 1
	f, err := os.OpenFile(filepath.Join(d.opts.Dir, walName(newGen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		d.mu.Unlock()
		d.cpErrors.Inc()
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	old, oldGen := d.wal, d.walGen
	d.retired[oldGen] = d.walSize
	for g := range d.retired {
		if g+retiredKeep <= newGen {
			delete(d.retired, g)
		}
	}
	d.wal, d.walGen, d.walSize, d.dirty, d.appended = f, newGen, 0, false, 0
	d.notifyLocked()
	caps := d.captureLocked()
	d.mu.Unlock()

	// The old generation stays on disk, and stays the recovery source,
	// until the manifest naming BaseGen = newGen is.
	_ = old.Sync()
	_ = old.Close()
	keys := make([]int64, 0, len(caps))
	for k := range caps {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	entries := 0
	for _, k := range keys {
		if err := d.writeWindow(caps[k]); err != nil {
			d.cpErrors.Inc()
			return err
		}
		entries += len(caps[k].mem)
	}
	if err := syncDir(d.opts.Dir); err != nil {
		d.cpErrors.Inc()
		return err
	}

	// Commit.
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	for _, k := range keys {
		d.commitWindowLocked(caps[k])
	}
	d.baseGen = newGen
	doc := d.manifestDocLocked()
	d.mu.Unlock()

	// A failed save is not sticky: the manifest on disk still names a
	// consistent older state, the WAL it replays from is still there,
	// and the next checkpoint saves everything.
	if err := saveManifest(d.opts.Dir, doc); err != nil {
		d.cpErrors.Inc()
		return fmt.Errorf("store: rotate manifest: %w", err)
	}
	d.removeObsolete(newGen)
	d.removeUnreferencedSegments(doc)
	d.mu.Lock()
	d.lastCP = time.Now()
	d.mu.Unlock()
	d.checkpoints.Inc()
	d.cpHist.Observe(time.Since(start).Seconds())
	d.log.Info("store checkpoint",
		"windows", len(keys), "entries", entries, "generation", newGen,
		"elapsed", time.Since(start).Round(time.Millisecond))
	return nil
}

// CompactNow is Checkpoint. It stays because bench/ calls it.
func (d *Disk) CompactNow() error { return d.Checkpoint() }

// TieredStats is the storage panel's data: per-tier sizes (served on
// /stats and rendered by fovctl storage).
type TieredStats struct {
	SegmentWindowMillis int64 `json:"segmentWindowMillis"`
	Segments            int   `json:"segments"`
	SegmentBytes        int64 `json:"segmentBytes"`
	SegmentEntries      int   `json:"segmentEntries"`
	MemtableEntries     int   `json:"memtableEntries"`
	Tombstones          int   `json:"tombstones"`
	StagedSegments      int   `json:"stagedSegments"`
	// Compactions counts window seals: one per window a checkpoint
	// rewrote.
	Compactions int64 `json:"compactions"`
}

// TieredStats reports the segment tier's current shape.
func (d *Disk) TieredStats() TieredStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := TieredStats{
		SegmentWindowMillis: d.segWindowMs,
		Segments:            len(d.segs),
		SegmentEntries:      d.visibleSealedLocked(),
		MemtableEntries:     len(d.state),
		Tombstones:          d.tombCount,
		StagedSegments:      len(d.staged),
		Compactions:         d.compactions.Value(),
	}
	for _, m := range d.segs {
		ts.SegmentBytes += m.Bytes
	}
	return ts
}
