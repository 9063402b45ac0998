// The segment tier: everything Disk does beyond appending to the log.
// A checkpoint seals the memtable, every window of it.
//
// Data model. The memtable is the log from the manifest's BaseGen on:
// what was appended since the last checkpoint. RAM keeps only its ids
// (d.mem, each with the generation of its latest register record);
// whoever needs its entries folds them from the log (memtableAt).
// Everything older lives in immutable segment files (one per time
// window, segfile.go) named by the manifest (manifest.go). The visible
// entry set is:
//
//	memtable ∪ { sealed entry e in window w :
//	             no tombstone (e.ID, w) and e.ID not in memtable }
//
// The memtable always shadows a sealed copy of the same ID, and a
// tombstone suppresses a sealed copy outright (visibleEntries is the one
// implementation of that rule). WAL replay therefore stays an
// idempotent fold, and correctness lives at read time.
//
// Checkpoint is the one writer of segments: it rotates the log, folds
// the rotated generations — immutable from then on — into each
// affected window's memtable entries, merges those with the window's
// surviving sealed copies into a fresh segment file (sequence+1),
// commits every window and the new WAL base generation together in
// RAM, rotates the manifest, then deletes the retired WAL and the
// superseded files. An entry seals into the window its start falls in,
// however long it runs, so no entry is memtable-resident past the next
// checkpoint, and the image cap (maxSegmentBlock) bounds one window,
// not all unsealed data.
//
// Residency. A sealed entry lives only in its segment file; in RAM the
// store keeps each segment's manifest meta and the id→window map
// (segIDs: an idset.Map, one mask, a base window and the live ids'
// 1-B offsets from it per 64 ids, about 2.3 B a sealed entry). Whoever
// needs sealed entries reads them from the files while holding cpMu,
// which every file replacement (checkpoint, segment install, bootstrap)
// also holds, so the files a reader was pointed at stay put. Lock order is cpMu, then d.mu — never
// the reverse — and no file is read or written under d.mu: the append
// path never waits on segment I/O.
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
	if w, ok := d.segIDs.Get(id); ok && w == window {
		d.segIDs.Delete(id)
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
	d.mem.Range(func(id uint64, _ int64) bool {
		if _, ok := d.segIDs.Get(id); ok {
			shadows++
		}
		return true
	})
	return total - d.tombCount - shadows
}

// segmentBytesLocked sums the live segment files' sizes (d.mu held).
func (d *Disk) segmentBytesLocked() int64 {
	var n int64
	for _, m := range d.segs {
		n += m.Bytes
	}
	return n
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
// Disk.ReadEntries and both FinishBootstraps share: it hands sink every
// sealed entry — walk feeds one segment's entries, segments in the
// order given — that no memtable entry of the same id shadows and no
// tombstone of its window suppresses, then the memtable. An error from
// sink ends the walk at its segment's end and is returned as it is.
func visibleEntries(segs []SegmentMeta, dead map[Tombstone]struct{}, mem map[uint64]index.Entry,
	walk func(m SegmentMeta, fn func(e index.Entry, prov, rec []byte)) error, sink func(*index.Entry) error) error {
	var cur index.Entry // the one entry sink sees, so none escapes per call
	var sinkErr error
	for _, m := range segs {
		var names providerNames
		err := walk(m, func(e index.Entry, prov, _ []byte) {
			_, shadowed := mem[e.ID]
			_, removed := dead[Tombstone{ID: e.ID, Window: m.Window}]
			if sinkErr == nil && !shadowed && !removed {
				cur = e
				cur.Provider = names.intern(prov)
				sinkErr = sink(&cur)
			}
		})
		if err != nil {
			return fmt.Errorf("store: read sealed window %d: %w", m.Window, err)
		}
		if sinkErr != nil {
			return sinkErr
		}
	}
	for _, cur = range mem {
		if err := sink(&cur); err != nil {
			return err
		}
	}
	return nil
}

// tombstoneSet indexes a manifest's tombstones for visibleEntries.
func tombstoneSet(ts []Tombstone) map[Tombstone]struct{} {
	dead := make(map[Tombstone]struct{}, len(ts))
	for _, t := range ts {
		dead[t] = struct{}{}
	}
	return dead
}

// manifestDocLocked snapshots the on-disk manifest document (d.mu
// held).
func (d *Disk) manifestDocLocked() manifestDoc {
	doc := manifestDoc{Version: manifestVersion}
	for _, m := range d.segs {
		doc.Segments = append(doc.Segments, m)
	}
	sort.Slice(doc.Segments, func(i, j int) bool { return doc.Segments[i].Window < doc.Segments[j].Window })
	doc.BaseGen, doc.HighID = d.baseGen, d.highID
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
// under d.mu, the memtable entries it folded from the rotated log, and
// the segment it wrote.
type windowCapture struct {
	window int64
	old    SegmentMeta // the live segment being superseded, when sealed
	sealed bool
	// mem holds the memtable entries that seal into the window.
	mem []index.Entry
	// dead holds the ids whose sealed copy in this window the new file
	// drops: the captured tombstones, and every copy a memtable entry
	// of the same id shadows, whichever window that entry seals into.
	dead  map[uint64]struct{}
	meta  SegmentMeta // the written segment, when wrote
	wrote bool
}

// captureWindow returns the capture of window k, made on first use
// beside the live segment it supersedes (cpMu held: d.segs holds still).
func (d *Disk) captureWindow(caps map[int64]*windowCapture, k int64) *windowCapture {
	c, ok := caps[k]
	if !ok {
		c = &windowCapture{window: k, dead: make(map[uint64]struct{})}
		c.old, c.sealed = d.segs[k]
		caps[k] = c
	}
	return c
}

// captureLocked groups the sealed copies the memtable shadows and the
// tombstones by the window each affects (cpMu and d.mu held).
func (d *Disk) captureLocked() map[int64]*windowCapture {
	caps := make(map[int64]*windowCapture)
	d.mem.Range(func(id uint64, _ int64) bool {
		if w, ok := d.segIDs.Get(id); ok {
			d.captureWindow(caps, w).dead[id] = struct{}{}
		}
		return true
	})
	for id, ws := range d.tombs {
		for _, w := range ws {
			d.captureWindow(caps, w).dead[id] = struct{}{}
		}
	}
	return caps
}

// writeWindow merges the window's surviving sealed copies with its
// captured memtable entries into the next-sequence segment file and
// renames it into place, unreferenced until the commit. The old file
// is re-verified as it is read; its survivors keep their encoded bytes.
func (d *Disk) writeWindow(c *windowCapture) error {
	b, err := newBlockBuilder(c.mem)
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

// commitWindowLocked swaps one written window, sealed from the log up
// to generation sealedGen, into the live set (d.mu held). Appends and
// removes may have run since the capture, all into later generations;
// the rules below land every interleaving on the visibility invariant,
// and the result does not depend on the order windows commit in.
func (d *Disk) commitWindowLocked(c *windowCapture, sealedGen uint64) {
	if c.wrote {
		d.segs[c.window] = c.meta
	} else {
		delete(d.segs, c.window)
	}
	// The dead copies are gone from the new file, and with them every
	// tombstone naming them — including one a remove raced in.
	for id := range c.dead {
		d.dropTombLocked(id, c.window)
		if w, ok := d.segIDs.Get(id); ok && w == c.window {
			d.segIDs.Delete(id)
		}
	}
	for _, e := range c.mem {
		id := e.ID
		d.segIDs.Put(id, c.window)
		gen, ok := d.mem.Get(id)
		switch {
		case !ok:
			// Removed while we wrote: the remove keeps winning over the
			// fresh sealed copy.
			d.addTombLocked(id, c.window)
		case uint64(gen) <= sealedGen:
			d.mem.Delete(id)
		default:
			// Re-registered while we wrote: the memtable copy shadows the
			// sealed one until the next checkpoint.
		}
	}
	d.compactions.Inc()
}

// Checkpoint implements Store by sealing: under d.mu it rotates the
// WAL to G+1 and captures the sealed copies the memtable shadows and
// the tombstones; with no lock held it folds generations BaseGen..G
// into each window's entries and writes one merged segment per
// captured window; in one d.mu section it commits every window
// together with BaseGen = G+1, and takes the records it sealed off the
// pending count (a failed checkpoint leaves them pending). It then
// saves the manifest, and only then deletes the WAL below G+1, the
// segment files the manifest no longer names, and any staged file of
// an unfinished bootstrap. Appends wait for the rotation and the
// commit, never for segment I/O.
//
// A crash anywhere before the manifest rename recovers from the old
// manifest and the WAL from its BaseGen, which nothing has deleted; a
// crash after it recovers from the new one. Files the crash left
// unreferenced are swept on open.
func (d *Disk) Checkpoint() error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	start := time.Now()

	// Rotate and capture. An empty live generation above the base means
	// an earlier attempt rotated and then failed: seal what it rotated
	// away, and add no generation.
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	var old *os.File
	if d.walSize != 0 || d.walGen == d.baseGen {
		f, err := os.OpenFile(filepath.Join(d.opts.Dir, walName(d.walGen+1)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			d.mu.Unlock()
			d.cpErrors.Inc()
			return fmt.Errorf("store: rotate wal: %w", err)
		}
		old = d.wal
		d.retired[d.walGen] = d.walSize
		for g := range d.retired {
			if g+retiredKeep <= d.walGen+1 {
				delete(d.retired, g)
			}
		}
		d.wal, d.walGen, d.walSize, d.dirty = f, d.walGen+1, 0, false
		d.notifyLocked()
	}
	newGen, base := d.walGen, d.baseGen
	oldGen, oldSize := newGen-1, d.retired[newGen-1]
	sealing, n := d.appended, d.mem.Len()
	caps := d.captureLocked()
	d.mu.Unlock()

	// The old generation stays on disk, and stays the recovery source,
	// until the manifest naming BaseGen = newGen is.
	if old != nil {
		_ = old.Sync()
		_ = old.Close()
	}
	mem, err := d.memtableAt(base, oldGen, oldSize, n)
	if err != nil {
		d.cpErrors.Inc()
		return err
	}
	for _, e := range mem {
		c := d.captureWindow(caps, d.windowKeyOf(e))
		c.mem = append(c.mem, e)
	}
	keys := make([]int64, 0, len(caps))
	for k := range caps {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := d.writeWindow(caps[k]); err != nil {
			d.cpErrors.Inc()
			return err
		}
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
		d.commitWindowLocked(caps[k], oldGen)
	}
	d.appended -= sealing
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
	d.removeUnreferencedSegments(doc, true)
	d.mu.Lock()
	d.lastCP = time.Now()
	d.mu.Unlock()
	d.checkpoints.Inc()
	d.cpHist.Observe(time.Since(start).Seconds())
	d.log.Info("store checkpoint",
		"windows", len(keys), "entries", len(mem), "generation", newGen,
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
	// Compactions counts window seals: one per window a checkpoint
	// rewrote.
	Compactions int64 `json:"compactions"`
}

// TieredStats reports the segment tier's current shape.
func (d *Disk) TieredStats() TieredStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return TieredStats{
		SegmentWindowMillis: d.segWindowMs,
		Segments:            len(d.segs),
		SegmentEntries:      d.visibleSealedLocked(),
		MemtableEntries:     d.mem.Len(),
		Tombstones:          d.tombCount,
		Compactions:         d.compactions.Value(),
		SegmentBytes:        d.segmentBytesLocked(),
	}
}
