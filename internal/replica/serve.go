// Leader side of the protocol: Serve answers one /replicate request
// from a LogSource (implemented by *store.Disk).
package replica

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"fovr/internal/index"
	"fovr/internal/store"
)

// LogSource is the leader-side store surface Serve reads from.
// *store.Disk implements it; a non-durable store cannot lead because it
// has no log to ship.
type LogSource interface {
	// StoreID identifies the data directory across restarts.
	StoreID() string
	// LogCursor returns the live log head.
	LogCursor() (gen uint64, off int64)
	// ReadLog returns whole committed frames from a position.
	ReadLog(gen uint64, off int64) ([]byte, store.TailStatus, error)
	// WaitForLog blocks until the position has news, ctx expires, or the
	// store closes.
	WaitForLog(ctx context.Context, gen uint64, off int64) error
	// ManifestSnapshot returns the served cold-tier state.
	ManifestSnapshot() store.ManifestSnapshot
	// ReadSegment returns the verbatim bytes of live segment (window,
	// seq); an error means the manifest moved past it.
	ReadSegment(window int64, seq uint64) ([]byte, error)
	// CaptureMem atomically captures the memtable, its WAL cursor, and
	// the manifest hash at that instant.
	CaptureMem() (entries []index.Entry, gen uint64, off int64, hash uint64)
}

// MaxWait caps the client-requested long-poll hold. It must stay under
// the API server's write timeout (30s), or idle polls would be cut off
// as slow responses.
const MaxWait = 25 * time.Second

// ServeResult summarizes one served replication request for the
// caller's metrics and logs.
type ServeResult struct {
	Stream  string // the HeaderStream kind served
	Bytes   int64  // body bytes written
	Entries int    // memtable entries (StreamMem only)
}

// Serve answers one GET /replicate request: a bootstrap leg, or a WAL
// tail long-polling up to the requested wait when the follower is
// caught up. A zero or unservable cursor gets an empty tail whose next
// cursor is zero, which sends the follower to the bootstrap legs. A
// mid-stream write failure is returned for logging; the status line is
// already gone by then, so the cut body is the client's signal (the
// image CRC trailer and the WAL frame checksums detect it).
func Serve(w http.ResponseWriter, r *http.Request, src LogSource) (ServeResult, error) {
	q := r.URL.Query()
	switch {
	case q.Get("manifest") != "":
		return serveManifest(w, src)
	case q.Get("segment") != "":
		window, _ := strconv.ParseInt(q.Get("segment"), 10, 64)
		seq, _ := strconv.ParseUint(q.Get("seq"), 10, 64)
		return serveSegment(w, src, window, seq)
	case q.Get("mem") != "":
		return serveMem(w, src)
	}
	gen, _ := strconv.ParseUint(q.Get("gen"), 10, 64)
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	wait, _ := time.ParseDuration(q.Get("wait"))
	if wait > MaxWait {
		wait = MaxWait
	}
	if gen == 0 {
		return serveWAL(w, src, nil, Cursor{})
	}
	deadline := time.Now().Add(wait)
	for {
		data, status, err := src.ReadLog(gen, off)
		if err != nil {
			http.Error(w, "replicate: "+err.Error(), http.StatusInternalServerError)
			return ServeResult{}, err
		}
		switch status {
		case store.TailReset:
			return serveWAL(w, src, nil, Cursor{})
		case store.TailAdvance:
			return serveWAL(w, src, nil, Cursor{Gen: gen + 1, Off: 0})
		}
		if len(data) == 0 {
			if remain := time.Until(deadline); remain > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), remain)
				err := src.WaitForLog(ctx, gen, off)
				cancel()
				if err == nil {
					continue // news arrived; re-read
				}
				// Timeout, client gone, or store closed: answer empty.
			}
		}
		return serveWAL(w, src, data, Cursor{Gen: gen, Off: off + int64(len(data))})
	}
}

func setCursorHeaders(w http.ResponseWriter, src LogSource, next Cursor) {
	leadGen, leadOff := src.LogCursor()
	h := w.Header()
	h.Set(HeaderStoreID, src.StoreID())
	h.Set(HeaderNextGen, strconv.FormatUint(next.Gen, 10))
	h.Set(HeaderNextOff, strconv.FormatInt(next.Off, 10))
	h.Set(HeaderLeadGen, strconv.FormatUint(leadGen, 10))
	h.Set(HeaderLeadOff, strconv.FormatInt(leadOff, 10))
}

func serveWAL(w http.ResponseWriter, src LogSource, data []byte, next Cursor) (ServeResult, error) {
	w.Header().Set(HeaderStream, StreamWAL)
	w.Header().Set("Content-Type", "application/octet-stream")
	setCursorHeaders(w, src, next)
	n, err := w.Write(data)
	return ServeResult{Stream: StreamWAL, Bytes: int64(n)}, err
}

// serveManifest ships the cold-tier manifest as JSON: which segments a
// bootstrapping follower needs, and the tombstones it installs with
// them.
func serveManifest(w http.ResponseWriter, src LogSource) (ServeResult, error) {
	ms := src.ManifestSnapshot()
	w.Header().Set(HeaderStream, StreamManifest)
	w.Header().Set("Content-Type", "application/json")
	gen, off := src.LogCursor()
	setCursorHeaders(w, src, Cursor{Gen: gen, Off: off})
	data, err := json.Marshal(ms)
	if err != nil {
		http.Error(w, "replicate: "+err.Error(), http.StatusInternalServerError)
		return ServeResult{}, err
	}
	n, err := w.Write(data)
	return ServeResult{Stream: StreamManifest, Bytes: int64(n)}, err
}

// serveSegment ships one live segment's verbatim file bytes. A segment
// the manifest has moved past answers 404; the follower refetches the
// manifest.
func serveSegment(w http.ResponseWriter, src LogSource, window int64, seq uint64) (ServeResult, error) {
	raw, err := src.ReadSegment(window, seq)
	if err != nil {
		http.Error(w, "replicate: "+err.Error(), http.StatusNotFound)
		return ServeResult{Stream: StreamSegment}, nil
	}
	w.Header().Set(HeaderStream, StreamSegment)
	w.Header().Set("Content-Type", "application/octet-stream")
	gen, off := src.LogCursor()
	setCursorHeaders(w, src, Cursor{Gen: gen, Off: off})
	n, err := w.Write(raw)
	return ServeResult{Stream: StreamSegment, Bytes: int64(n)}, err
}

// serveMem ships the memtable as an image (store.EncodeSegment, window
// 0), stamped with the WAL cursor to resume streaming from and the
// manifest hash the capture was consistent with.
func serveMem(w http.ResponseWriter, src LogSource) (ServeResult, error) {
	entries, gen, off, hash := src.CaptureMem()
	img, _, err := store.EncodeSegment(0, entries)
	if err != nil {
		http.Error(w, "replicate: "+err.Error(), http.StatusInternalServerError)
		return ServeResult{}, err
	}
	w.Header().Set(HeaderStream, StreamMem)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderManifestHash, strconv.FormatUint(hash, 10))
	setCursorHeaders(w, src, Cursor{Gen: gen, Off: off})
	n, err := w.Write(img)
	return ServeResult{Stream: StreamMem, Bytes: int64(n), Entries: len(entries)}, err
}
