// The manifest is the cold tier's recovery root: a small JSON document
// naming every live segment file (with size and CRC so recovery can
// refuse a damaged one loudly), every bootstrap-staged segment awaiting
// promotion, and every tombstone suppressing a sealed entry that was
// later removed. It rotates atomically — write manifest.tmp, fsync,
// rename over manifest, fsync the directory — so a crash at any byte
// leaves either the old or the new document, never a torn one.
//
// Durability contract for tombstones: a tombstone is durable iff it is
// in the manifest OR derivable from WAL replay (the remove record sits
// in a generation at or after the checkpoint base). Checkpointing is
// the only thing that retires WAL generations, so Checkpoint writes
// the manifest BEFORE renaming the new checkpoint into place — the
// moment the WAL records become unreachable, the manifest already
// carries what they implied.
package store

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
)

const (
	manifestFile    = "manifest"
	manifestTmpFile = "manifest.tmp"
	manifestVersion = 1
)

// SegmentMeta describes one sealed segment file: its window key, its
// rewrite sequence within that window (each compaction bumps it), and
// the size/CRC recovery verifies before trusting the file. It is also
// the wire shape the tiered replication bootstrap ships.
type SegmentMeta struct {
	Window int64  `json:"window"`
	Seq    uint64 `json:"seq"`
	Count  int    `json:"count"`
	Bytes  int64  `json:"bytes"`
	CRC    uint32 `json:"crc"`
}

// Tombstone records that sealed entry ID in Window was removed after
// the seal. (ID, Window) pairs — not a plain id→window map — because
// the same ID can be tombstoned in several windows over its lifetime
// (removed, re-registered into a later window, sealed again, removed
// again) and dropping the older pair would resurrect the older copy.
type Tombstone struct {
	ID     uint64 `json:"id"`
	Window int64  `json:"window"`
}

// ManifestSnapshot is the externally visible cold-tier state: what the
// tiered replication bootstrap serves. Staged segments are excluded —
// they are local bootstrap scaffolding, not served state.
type ManifestSnapshot struct {
	Segments   []SegmentMeta `json:"segments"`
	Tombstones []Tombstone   `json:"tombstones"`
	// Hash fingerprints (Segments, Tombstones) so a follower can detect
	// the sealed set moving between its manifest fetch and its memtable
	// fetch. String-encoded: uint64 does not survive JSON numbers.
	Hash uint64 `json:"hash,string"`
}

// manifestDoc is the on-disk document.
type manifestDoc struct {
	Version    int           `json:"version"`
	Segments   []SegmentMeta `json:"segments"`
	Staged     []SegmentMeta `json:"staged,omitempty"`
	Tombstones []Tombstone   `json:"tombstones,omitempty"`
}

// manifestHash fingerprints the served cold-tier state with FNV-1a
// over the sorted (window, seq, crc, count) tuples and tombstone pairs.
// Content-derived, not a counter: a leader restart must not produce a
// false match against a follower's stale view.
func manifestHash(segs []SegmentMeta, tombs []Tombstone) uint64 {
	ss := append([]SegmentMeta(nil), segs...)
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Window != ss[j].Window {
			return ss[i].Window < ss[j].Window
		}
		return ss[i].Seq < ss[j].Seq
	})
	ts := append([]Tombstone(nil), tombs...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].ID != ts[j].ID {
			return ts[i].ID < ts[j].ID
		}
		return ts[i].Window < ts[j].Window
	})
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(uint64(len(ss)))
	for _, s := range ss {
		word(uint64(s.Window))
		word(s.Seq)
		word(uint64(s.CRC))
		word(uint64(s.Count))
	}
	for _, t := range ts {
		word(t.ID)
		word(uint64(t.Window))
	}
	return h.Sum64()
}

// loadManifest reads dir's manifest. A missing file is an empty
// manifest (first boot, or the segment tier never ran); a present but
// unparsable one is ErrCorrupt — the manifest names data that exists
// nowhere else once the WAL is truncated, so recovery must not shrug
// it off.
func loadManifest(dir string) (manifestDoc, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return manifestDoc{Version: manifestVersion}, false, nil
	}
	if err != nil {
		return manifestDoc{}, false, err
	}
	var doc manifestDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return manifestDoc{}, false, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if doc.Version != manifestVersion {
		return manifestDoc{}, false, fmt.Errorf("%w: manifest version %d unsupported", ErrCorrupt, doc.Version)
	}
	return doc, true, nil
}

// saveManifest rotates dir's manifest atomically: tmp, fsync, rename,
// directory fsync.
func saveManifest(dir string, doc manifestDoc) error {
	doc.Version = manifestVersion
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestTmpFile)
	if err := writeFileSync(tmp, func(w *os.File) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		return err
	}
	return syncDir(dir)
}
