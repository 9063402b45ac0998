// Package replica implements leader-follower replication for the cloud
// server: WAL shipping, read replicas, and catch-up recovery. The paper
// (Section V) runs retrieval on one process; the workloads this repo
// targets are read-heavy — as in POI-detection pipelines over
// georeferenced FoV streams, query load dwarfs ingest — so one durable
// ingest leader feeding any number of read-only followers is how the
// system scales horizontally.
//
// The subsystem is a thin protocol over what the leader's store.Disk
// already keeps on disk: the CRC-framed WAL (the shipped bytes are the
// leader's log frames, verbatim) and images — each sealed segment
// shipped as its file bytes, the memtable as the image a checkpoint
// would write (store.EncodeSegment). One HTTP endpoint on the leader
// carries it:
//
//	GET /replicate?manifest=1       — bootstrap: the sealed-segment manifest
//	GET /replicate?segment=W&seq=N  — bootstrap: one segment's file bytes
//	GET /replicate?mem=1            — bootstrap: the memtable, as a window-0 image
//	GET /replicate?gen=G&off=O      — log tail from position (G, O)
//	GET /replicate?...&wait=10s     — long-poll: hold the request until
//	                                  new records commit (capped at MaxWait)
//
// Responses are typed by the X-Fovr-Stream header and always carry the
// cursor to resume from after applying the body (X-Fovr-Next-Gen/-Off),
// the leader's live head for lag accounting (X-Fovr-Lead-Gen/-Off), and
// the leader store's persistent identity (X-Fovr-Store-Id). A follower
// whose cursor the leader cannot serve — it lagged past a checkpoint's
// log truncation, or the leader's history was replaced — gets an empty
// log batch whose next cursor is zero, the follower's own "bootstrap
// me": catch-up recovery IS the bootstrap, there is no separate repair
// protocol, and a durable follower re-fetches only the segments it
// lacks.
//
// What a follower guarantees: its state is always some prefix of the
// leader's append order (bounded staleness, never invented state).
// Mutations are rejected by the read-only server with ErrReadOnly / HTTP
// 409 naming the leader. Failover is by restart: start the follower
// process without -replica-of and it serves its replicated state as a
// writable leader, with id assignment resuming past every replicated id.
// Leader and followers run the same binary.
package replica

import (
	"fmt"

	"fovr/internal/index"
	"fovr/internal/store"
)

// Cursor is a replication position: the byte just past the last applied
// record in the leader's log segment wal-<Gen>.log. The zero Cursor
// means "no state; bootstrap me".
type Cursor struct {
	Gen uint64 `json:"gen"`
	Off int64  `json:"off"`
}

// IsZero reports whether the cursor asks for a bootstrap.
func (c Cursor) IsZero() bool { return c.Gen == 0 }

func (c Cursor) String() string { return fmt.Sprintf("%d/%d", c.Gen, c.Off) }

// Stream kinds carried in the HeaderStream response header: the log
// tail, then the three bootstrap legs (?manifest=1, ?segment=W&seq=N,
// ?mem=1).
const (
	StreamWAL      = "wal"
	StreamManifest = "manifest"
	StreamSegment  = "segment"
	StreamMem      = "memsnapshot"
)

// Protocol headers. Every /replicate response carries Stream, StoreID,
// the Next cursor, and the Lead cursor; memsnapshot responses also
// carry ManifestHash so the follower can detect the sealed set moving
// between its manifest fetch and its memtable fetch.
const (
	HeaderStream       = "X-Fovr-Stream"
	HeaderStoreID      = "X-Fovr-Store-Id"
	HeaderNextGen      = "X-Fovr-Next-Gen"
	HeaderNextOff      = "X-Fovr-Next-Off"
	HeaderLeadGen      = "X-Fovr-Lead-Gen"
	HeaderLeadOff      = "X-Fovr-Lead-Off"
	HeaderManifestHash = "X-Fovr-Manifest-Hash"
)

// Batch is one decoded log tail (Fetch) or memtable (FetchMem)
// response.
type Batch struct {
	// Entries is the leader's memtable (FetchMem only).
	Entries []index.Entry
	// Frames holds verbatim WAL frames (Fetch only; may be empty when the
	// long poll expired with nothing new).
	Frames []byte
	// Next is the cursor to resume from after applying this batch; zero
	// when the leader cannot serve the cursor asked with.
	Next Cursor
	// Lead is the leader's live log head when the batch was served.
	Lead Cursor
	// StoreID identifies the leader's data directory; a change mid-tail
	// means the history was replaced and the follower must re-bootstrap.
	StoreID string
	// ManifestHash is the leader's manifest fingerprint the memtable was
	// captured against (FetchMem only).
	ManifestHash uint64
}

// ManifestBatch is one decoded ?manifest=1 response: the leader's
// cold-tier state plus the usual identity/lead headers.
type ManifestBatch struct {
	Manifest store.ManifestSnapshot
	StoreID  string
	Lead     Cursor
}
