// The manifest is the store's one recovery root: a small JSON document
// naming every live segment file (with size and CRC so recovery can
// refuse a damaged one loudly), every tombstone suppressing a sealed
// entry that was later removed, BaseGen, the first WAL generation
// recovery replays, and HighID, an id mark no id journaled before
// BaseGen exceeds. A follower's staged segments are not in it: each
// staged file is its own install record (tieredboot.go). It
// rotates atomically — write manifest.tmp, fsync, rename over manifest,
// fsync the directory — so a crash at any byte leaves either the old or
// the new document, never a torn one.
//
// A checkpoint commits its segments and BaseGen in one document, and
// only after that document is on disk does it delete the WAL below
// BaseGen. The state is therefore always the manifest's segments less
// its tombstones, folded with the WAL from BaseGen on.
//
// Durability contract for tombstones: a tombstone is durable iff it is
// in the manifest OR derivable from WAL replay (the remove record sits
// in a generation at or after BaseGen). Every manifest a checkpoint
// saves carries the tombstones of that instant, and the WAL it then
// retires lies wholly below the BaseGen the same document names.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

const (
	manifestFile    = "manifest"
	manifestTmpFile = "manifest.tmp"
	manifestVersion = 1
)

// SegmentMeta describes one sealed segment file: its window key, its
// rewrite sequence within that window (each checkpoint that rewrites
// the window bumps it), and the size/CRC recovery verifies before
// trusting the file. It is also the wire shape the replication
// bootstrap ships.
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

// ManifestSnapshot is the externally visible recovery root: what the
// replication bootstrap serves. Its segments less its tombstones,
// folded with the WAL from (BaseGen, 0) on, are the store's state;
// HighID is the store's id mark, which a follower's bootstrap copies.
type ManifestSnapshot struct {
	Segments   []SegmentMeta `json:"segments"`
	Tombstones []Tombstone   `json:"tombstones"`
	BaseGen    uint64        `json:"baseGen"`
	HighID     uint64        `json:"highID,omitempty"`
}

// manifestDoc is the on-disk document. A document without BaseGen (0)
// replays every WAL generation present; one without HighID (0) takes
// its mark from the ids its segments and WAL hold.
type manifestDoc struct {
	Version    int           `json:"version"`
	Segments   []SegmentMeta `json:"segments"`
	Tombstones []Tombstone   `json:"tombstones,omitempty"`
	BaseGen    uint64        `json:"baseGen,omitempty"`
	HighID     uint64        `json:"highID,omitempty"`
}

// loadManifest reads dir's manifest. A missing file is an empty
// manifest (first boot, or no checkpoint ever ran); a present but
// unparsable one is ErrCorrupt — the manifest names data that exists
// nowhere else once the WAL is truncated, so recovery must not shrug
// it off.
func loadManifest(dir string) (manifestDoc, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return manifestDoc{Version: manifestVersion}, nil
	}
	if err != nil {
		return manifestDoc{}, err
	}
	var doc manifestDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return manifestDoc{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if doc.Version != manifestVersion {
		return manifestDoc{}, fmt.Errorf("%w: manifest version %d unsupported", ErrCorrupt, doc.Version)
	}
	return doc, nil
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
