// The store half of the replication bootstrap.
//
// Leader side: ManifestSnapshot and ReadSegment are what replica.Serve
// ships — the manifest names the sealed set, its tombstones and
// BaseGen, and each segment ships as its verbatim file bytes. The
// segments less the tombstones, folded with the WAL from (BaseGen, 0)
// on, are the leader's state, so a follower's bootstrap is a
// checkpoint's recovery over HTTP: install the segments, then tail the
// log from BaseGen.
//
// Follower side, Disk: InstallSegment writes each fetched segment as a
// STAGED file, and that file is the whole install record — no manifest
// names it — so local durable presence is the per-segment resume cursor:
// a follower killed and restarted mid-bootstrap, or re-bootstrapping
// after it lagged past the leader's log, finds its staged and live
// segments and skips them (HasSegment). FinishBootstrap reads each
// segment once, promotes the staged set to live names no live segment
// holds, empties the memtable, rotates WAL + manifest into the leader's
// history, and then deletes every staged file.
//
// Follower side, Mem: InstallSegment verifies each segment and keeps its
// image in RAM; FinishBootstrap walks each image once.
//
// Either finish hands the visible set to a sink as it walks, the way
// ReadEntries does, so the server loads its index from the walk itself.
package store

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fovr/internal/idset"
	"fovr/internal/index"
)

// ManifestSnapshot returns the served recovery root — live segments,
// tombstones, BaseGen and the id mark — captured under one d.mu, so
// they describe one state.
func (d *Disk) ManifestSnapshot() ManifestSnapshot {
	d.mu.Lock()
	doc := d.manifestDocLocked()
	d.mu.Unlock()
	return ManifestSnapshot{Segments: doc.Segments, Tombstones: doc.Tombstones, BaseGen: doc.BaseGen, HighID: doc.HighID}
}

// ReadSegment returns the verbatim file bytes of the live segment
// (window, seq), or an error when the manifest has moved past it — the
// bootstrapping follower then refetches the manifest.
func (d *Disk) ReadSegment(window int64, seq uint64) ([]byte, error) {
	d.mu.Lock()
	seg, ok := d.segs[window]
	d.mu.Unlock()
	if !ok || seg.Seq != seq {
		return nil, fmt.Errorf("store: segment %d/%d is not live", window, seq)
	}
	return os.ReadFile(filepath.Join(d.opts.Dir, segmentFileName(window, seq)))
}

// HasSegment reports whether (window, seq, crc) is already durable
// locally — live, or staged by an earlier install. The bootstrap skips
// fetching it then. A staged file that exists is whole, since it was
// renamed into place, so only its 4-byte trailer is read here;
// finishBootstrap verifies it in full.
func (d *Disk) HasSegment(window int64, seq uint64, crc uint32) bool {
	d.mu.Lock()
	seg, ok := d.segs[window]
	d.mu.Unlock()
	if ok && seg.Seq == seq && seg.CRC == crc {
		return true
	}
	f, err := os.Open(filepath.Join(d.opts.Dir, stagedFileName(window, seq)))
	if err != nil {
		return false
	}
	defer f.Close()
	var trailer [4]byte
	fi, err := f.Stat()
	if err != nil || fi.Size() < 4 {
		return false
	}
	_, err = f.ReadAt(trailer[:], fi.Size()-4)
	return err == nil && segTrailerCRC(trailer[:]) == crc
}

// verifySegment walks one fetched segment image (walkSegment; fn may be
// nil) and checks it against the meta the leader advertised for it.
func verifySegment(meta SegmentMeta, raw []byte, fn func(e index.Entry, prov, rec []byte)) error {
	window, count, err := walkSegment(raw, fn)
	if err != nil {
		return fmt.Errorf("store: install segment %d/%d: %w", meta.Window, meta.Seq, err)
	}
	if window != meta.Window || count != meta.Count ||
		int64(len(raw)) != meta.Bytes || segTrailerCRC(raw) != meta.CRC {
		return fmt.Errorf("%w: segment %d/%d does not match its advertised meta",
			ErrCorrupt, meta.Window, meta.Seq)
	}
	return nil
}

// InstallSegment verifies one fetched segment against its advertised
// meta and writes it as a staged file: tmp, fsync, rename, directory
// fsync. The file is the whole install record — no manifest names it.
// Serialized on cpMu like every file replacement.
func (d *Disk) InstallSegment(meta SegmentMeta, raw []byte) error {
	if err := verifySegment(meta, raw, nil); err != nil {
		return err
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ErrClosed
	}
	name := stagedFileName(meta.Window, meta.Seq)
	tmp := filepath.Join(d.opts.Dir, name+".tmp")
	if err := writeFileSync(tmp, func(w *os.File) error {
		_, werr := w.Write(raw)
		return werr
	}); err != nil {
		return fmt.Errorf("store: stage segment: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.opts.Dir, name)); err != nil {
		return fmt.Errorf("store: stage segment: %w", err)
	}
	return syncDir(d.opts.Dir)
}

// FinishBootstrap implements Store: it reads each segment the leader's
// manifest names once, handing sink its visible entries, then promotes
// the staged ones to live, empties the memtable, and rotates WAL and
// manifest into the new history. The leader's WAL from ms.BaseGen on is
// the follower's to replay next. It breaks log continuity:
// old-generation cursors must re-bootstrap.
func (d *Disk) FinishBootstrap(ms ManifestSnapshot, sink func(*index.Entry) error) error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()

	// Resolve every leader segment to a local durable file — live, or
	// staged by InstallSegment — verified, its ids read and its visible
	// entries handed to sink, before touching any state: this walk is
	// the finish's one read of each file. cpMu keeps every file in
	// place; d.mu is held only to copy the live metas. A staged file
	// that fails the check is deleted, so the retry fetches it again;
	// an error from sink leaves it in place.
	type resolved struct {
		meta   SegmentMeta // as the follower records it
		ids    []uint64
		staged string // the staged file to promote, "" when live
	}
	res := make([]resolved, 0, len(ms.Segments))
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	live := maps.Clone(d.segs)
	d.mu.Unlock()
	err := visibleEntries(ms.Segments, tombstoneSet(ms.Tombstones), nil, func(m SegmentMeta, fn func(e index.Entry, prov, rec []byte)) error {
		r := resolved{meta: m, ids: make([]uint64, 0, m.Count)}
		name := segmentFileName(m.Window, m.Seq)
		if seg, ok := live[m.Window]; !ok || seg.Seq != m.Seq || seg.CRC != m.CRC {
			r.staged = stagedFileName(m.Window, m.Seq)
			name = r.staged
			// Promote to a sequence no live segment holds: the
			// pre-bootstrap files stay untouched until the manifest that
			// drops them is on disk.
			if ok && seg.Seq >= m.Seq {
				r.meta.Seq = seg.Seq + 1
			}
		}
		if err := d.walkSegmentFile(name, m, func(e index.Entry, prov, rec []byte) {
			r.ids = append(r.ids, e.ID)
			fn(e, prov, rec)
		}); err != nil {
			if r.staged != "" {
				os.Remove(filepath.Join(d.opts.Dir, r.staged))
			}
			return err
		}
		res = append(res, r)
		return nil
	}, sink)
	if err != nil {
		return fmt.Errorf("store: finish bootstrap: %w", err)
	}

	// Promote staged files to their live names before the manifest that
	// references them rotates.
	for _, r := range res {
		if r.staged == "" {
			continue
		}
		to := filepath.Join(d.opts.Dir, segmentFileName(r.meta.Window, r.meta.Seq))
		if err := os.Rename(filepath.Join(d.opts.Dir, r.staged), to); err != nil {
			return fmt.Errorf("store: promote staged segment: %w", err)
		}
	}
	if err := syncDir(d.opts.Dir); err != nil {
		return err
	}

	// Swap RAM state and rotate the WAL: the state at the start of the
	// new generation is the leader's, so no cursor from the old history
	// may advance across it — clearing retired answers every such cursor
	// with TailReset.
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
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	old := d.wal
	d.wal, d.walGen, d.walSize, d.dirty, d.appended = f, newGen, 0, false, 0
	d.retired = make(map[uint64]int64)
	d.mem = idset.Map{}
	d.baseGen = newGen
	// The leader's mark, never lowering this directory's own.
	d.highID = max(d.highID, ms.HighID)
	d.segs = make(map[int64]SegmentMeta, len(res))
	d.segIDs = idset.Map{}
	d.tombs = make(map[uint64][]int64)
	d.tombCount = 0
	for _, t := range ms.Tombstones {
		d.addTombLocked(t.ID, t.Window)
	}
	for _, r := range res {
		d.segs[r.meta.Window] = r.meta
		for _, id := range r.ids {
			if !d.tombHasLocked(id, r.meta.Window) {
				d.segIDs.Put(id, r.meta.Window)
			}
		}
	}
	d.notifyLocked()
	doc := d.manifestDocLocked()
	d.mu.Unlock()

	// Until the manifest naming BaseGen = newGen is on disk, a crash
	// recovers the pre-bootstrap state from the old one.
	_ = old.Sync()
	_ = old.Close()
	if err := syncDir(d.opts.Dir); err != nil {
		return err
	}
	if err := saveManifest(d.opts.Dir, doc); err != nil {
		d.cpErrors.Inc()
		return fmt.Errorf("store: rotate manifest: %w", err)
	}
	d.removeUnreferencedSegments(doc, true)
	d.removeObsolete(newGen)
	d.mu.Lock()
	d.lastCP = time.Now()
	d.mu.Unlock()
	d.checkpoints.Inc()
	d.log.Info("store finished bootstrap", "segments", len(res), "generation", newGen)
	return nil
}

// removeUnreferencedSegments deletes every segment file the manifest
// does not reference — superseded sequences, a crashed seal's output —
// and every torn tmp file; with staged, every staged file too. Recovery
// keeps the staged files: a bootstrap in flight resumes from them.
func (d *Disk) removeUnreferencedSegments(doc manifestDoc, staged bool) {
	names, err := os.ReadDir(d.opts.Dir)
	if err != nil {
		return
	}
	liveRef := make(map[string]struct{}, len(doc.Segments))
	for _, m := range doc.Segments {
		liveRef[segmentFileName(m.Window, m.Seq)] = struct{}{}
	}
	for _, de := range names {
		name := de.Name()
		_, ref := liveRef[name]
		// Torn tmp files come from a crashed segment or staged write:
		// every writer holds cpMu, as do all sweep callers, so no live tmp
		// can be caught here.
		if strings.HasSuffix(name, ".fovg.tmp") || isSegmentName(name) && !ref ||
			staged && strings.HasPrefix(name, "staged-") {
			os.Remove(filepath.Join(d.opts.Dir, name))
		}
	}
}

// HasSegment reports whether (window, seq, crc) is already installed
// by this bootstrap.
func (m *Mem) HasSegment(window int64, seq uint64, crc uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for meta := range m.staged {
		if meta.Window == window && meta.Seq == seq && meta.CRC == crc {
			return true
		}
	}
	return false
}

// InstallSegment verifies one fetched segment against its advertised
// meta and keeps the image until FinishBootstrap.
func (m *Mem) InstallSegment(meta SegmentMeta, raw []byte) error {
	if err := verifySegment(meta, raw, nil); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.staged == nil {
		m.staged = make(map[SegmentMeta][]byte)
	}
	m.staged[meta] = raw
	return nil
}

// FinishBootstrap walks the installed segments the manifest names once,
// handing sink their entries less its tombstones, and lets go of every
// installed segment.
func (m *Mem) FinishBootstrap(ms ManifestSnapshot, sink func(*index.Entry) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, seg := range ms.Segments {
		if _, ok := m.staged[seg]; !ok {
			return fmt.Errorf("store: finish bootstrap: segment %d/%d not installed", seg.Window, seg.Seq)
		}
	}
	staged := m.staged
	m.staged = nil
	return visibleEntries(ms.Segments, tombstoneSet(ms.Tombstones), nil, func(seg SegmentMeta, fn func(e index.Entry, prov, rec []byte)) error {
		_, _, err := walkSegment(staged[seg], fn)
		return err
	}, sink)
}
