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
// STAGED file and rotates the manifest immediately, so local durable
// presence is the per-segment resume cursor — a follower killed and
// restarted mid-bootstrap, or re-bootstrapping after it lagged past the
// leader's log, finds its staged and live segments and skips them
// (HasSegment). FinishBootstrap promotes the staged set to live, empties
// the memtable, and rotates WAL + manifest into the leader's history.
//
// Follower side, Mem: InstallSegment verifies and decodes each segment
// into RAM; FinishBootstrap assembles the visible set from them.
package store

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fovr/internal/index"
)

// ManifestSnapshot returns the served recovery root — live segments,
// tombstones and BaseGen — captured under one d.mu, so the three
// describe one state. Staged segments are local scaffolding and
// excluded.
func (d *Disk) ManifestSnapshot() ManifestSnapshot {
	d.mu.Lock()
	doc := d.manifestDocLocked()
	d.mu.Unlock()
	return ManifestSnapshot{Segments: doc.Segments, Tombstones: doc.Tombstones, BaseGen: doc.BaseGen}
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
// locally — live or staged. The bootstrap skips fetching it then.
func (d *Disk) HasSegment(window int64, seq uint64, crc uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if seg, ok := d.segs[window]; ok && seg.Seq == seq && seg.CRC == crc {
		return true
	}
	for _, m := range d.staged {
		if m.Window == window && m.Seq == seq && m.CRC == crc {
			return true
		}
	}
	return false
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
// meta, writes it as a staged file, and rotates the manifest so the
// install survives a crash. Serialized on cpMu like every manifest
// rotation.
func (d *Disk) InstallSegment(meta SegmentMeta, raw []byte) error {
	if err := verifySegment(meta, raw, nil); err != nil {
		return err
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
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
	if err := syncDir(d.opts.Dir); err != nil {
		return err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	replaced := false
	for i, m := range d.staged {
		if m.Window == meta.Window && m.Seq == meta.Seq {
			d.staged[i] = meta
			replaced = true
			break
		}
	}
	if !replaced {
		d.staged = append(d.staged, meta)
	}
	doc := d.manifestDocLocked()
	d.mu.Unlock()
	return saveManifest(d.opts.Dir, doc)
}

// FinishBootstrap promotes the staged segments named by the leader's
// manifest to live, empties the memtable, and rotates WAL and manifest
// into the new history, then returns the visible set. The leader's WAL
// from ms.BaseGen on is the follower's to replay next. It breaks log
// continuity: old-generation cursors must re-bootstrap.
func (d *Disk) FinishBootstrap(ms ManifestSnapshot) ([]index.Entry, error) {
	if err := d.finishBootstrap(ms); err != nil {
		return nil, err
	}
	return d.ReadEntries()
}

func (d *Disk) finishBootstrap(ms ManifestSnapshot) error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()

	// Resolve every leader segment to a local durable file, verified and
	// its ids read, before touching any state. cpMu keeps every file in
	// place; d.mu is held only to copy the live and staged metas.
	type resolved struct {
		meta      SegmentMeta
		ids       []uint64
		fromStage bool
	}
	res := make([]resolved, 0, len(ms.Segments))
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	live := maps.Clone(d.segs)
	staged := append([]SegmentMeta(nil), d.staged...)
	d.mu.Unlock()
	for _, m := range ms.Segments {
		r := resolved{meta: m, ids: make([]uint64, 0, m.Count)}
		name := segmentFileName(m.Window, m.Seq)
		if seg, ok := live[m.Window]; !ok || seg.Seq != m.Seq || seg.CRC != m.CRC {
			found := false
			for _, sm := range staged {
				if sm.Window == m.Window && sm.Seq == m.Seq && sm.CRC == m.CRC {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("store: finish bootstrap: segment %d/%d neither live nor staged", m.Window, m.Seq)
			}
			name, r.fromStage = stagedFileName(m.Window, m.Seq), true
		}
		if err := d.walkSegmentFile(name, m, func(e index.Entry, _, _ []byte) {
			r.ids = append(r.ids, e.ID)
		}); err != nil {
			return fmt.Errorf("store: finish bootstrap: %w", err)
		}
		res = append(res, r)
	}

	// Promote staged files to their live names before the manifest that
	// references them rotates.
	for _, r := range res {
		if !r.fromStage {
			continue
		}
		from := filepath.Join(d.opts.Dir, stagedFileName(r.meta.Window, r.meta.Seq))
		to := filepath.Join(d.opts.Dir, segmentFileName(r.meta.Window, r.meta.Seq))
		if err := os.Rename(from, to); err != nil {
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
	d.state = make(map[uint64]index.Entry)
	d.baseGen = newGen
	d.segs = make(map[int64]SegmentMeta, len(res))
	d.segIDs = make(map[uint64]int64)
	d.tombs = make(map[uint64][]int64)
	d.tombCount = 0
	d.staged = nil
	for _, t := range ms.Tombstones {
		d.addTombLocked(t.ID, t.Window)
	}
	for _, r := range res {
		d.segs[r.meta.Window] = r.meta
		for _, id := range r.ids {
			if !d.tombHasLocked(id, r.meta.Window) {
				d.segIDs[id] = r.meta.Window
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
	d.removeUnreferencedSegments(doc)
	d.removeObsolete(newGen)
	d.mu.Lock()
	d.lastCP = time.Now()
	d.mu.Unlock()
	d.checkpoints.Inc()
	d.log.Info("store finished bootstrap", "segments", len(res), "generation", newGen)
	return nil
}

// removeUnreferencedSegments deletes every segment-looking file the
// manifest does not reference — superseded sequences, leftover staged
// files, torn tmp files.
func (d *Disk) removeUnreferencedSegments(doc manifestDoc) {
	names, err := os.ReadDir(d.opts.Dir)
	if err != nil {
		return
	}
	liveRef := make(map[string]struct{}, len(doc.Segments)+len(doc.Staged))
	for _, m := range doc.Segments {
		liveRef[segmentFileName(m.Window, m.Seq)] = struct{}{}
	}
	for _, m := range doc.Staged {
		liveRef[stagedFileName(m.Window, m.Seq)] = struct{}{}
	}
	for _, de := range names {
		name := de.Name()
		// Torn tmp files from a crashed segment write: every writer holds
		// cpMu, as do all sweep callers, so no live tmp can be caught here.
		if strings.HasSuffix(name, ".fovg.tmp") {
			os.Remove(filepath.Join(d.opts.Dir, name))
			continue
		}
		if _, _, _, ok := parseSegmentName(name); !ok {
			continue
		}
		if _, ref := liveRef[name]; !ref {
			os.Remove(filepath.Join(d.opts.Dir, name))
		}
	}
}

// HasSegment reports whether (window, seq, crc) is already decoded in
// RAM by this bootstrap.
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
// meta and keeps its decoded entries until FinishBootstrap.
func (m *Mem) InstallSegment(meta SegmentMeta, raw []byte) error {
	var names providerNames
	entries := make([]index.Entry, 0, meta.Count)
	if err := verifySegment(meta, raw, func(e index.Entry, prov, _ []byte) {
		e.Provider = names.intern(prov)
		entries = append(entries, e)
	}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.staged == nil {
		m.staged = make(map[SegmentMeta][]index.Entry)
	}
	m.staged[meta] = entries
	return nil
}

// FinishBootstrap assembles the visible set from the installed
// segments the manifest names less its tombstones, and lets go of
// every installed segment.
func (m *Mem) FinishBootstrap(ms ManifestSnapshot) ([]index.Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, seg := range ms.Segments {
		if _, ok := m.staged[seg]; !ok {
			return nil, fmt.Errorf("store: finish bootstrap: segment %d/%d not installed", seg.Window, seg.Seq)
		}
	}
	staged := m.staged
	m.staged = nil
	dead := make(map[Tombstone]struct{}, len(ms.Tombstones))
	for _, t := range ms.Tombstones {
		dead[t] = struct{}{}
	}
	return visibleEntries(slices.Clone(ms.Segments), dead, nil, func(seg SegmentMeta, fn func(index.Entry)) error {
		for _, e := range staged[seg] {
			fn(e)
		}
		return nil
	})
}
