// Leader side of the protocol: Serve answers one /replicate request
// from a LogSource (implemented by *store.Disk).
package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

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
	// ManifestSnapshot returns the served recovery root: segments,
	// tombstones and BaseGen, captured together.
	ManifestSnapshot() store.ManifestSnapshot
	// ReadSegment returns the verbatim bytes of live segment (window,
	// seq); an error means the manifest moved past it.
	ReadSegment(window int64, seq uint64) ([]byte, error)
}

// MaxWait caps the client-requested long-poll hold. It must stay under
// the API server's write timeout (30s), or idle polls would be cut off
// as slow responses.
const MaxWait = 25 * time.Second

// ServeResult summarizes one served replication request for the
// caller's metrics and logs. Stream is empty when no body was served:
// the request was malformed, named a segment the manifest moved past,
// or the store failed.
type ServeResult struct {
	Stream string // the HeaderStream kind served
	Bytes  int64  // body bytes written
}

// params parses the query parameters a request carries. The first
// malformed one is recorded in err, naming it; an absent one parses as
// zero.
type params struct {
	q   url.Values
	err error
}

func (p *params) parse(name string, parse func(string) error) {
	v := p.q.Get(name)
	if v == "" || p.err != nil {
		return
	}
	if err := parse(v); err != nil {
		p.err = fmt.Errorf("replicate: bad %s %q", name, v)
	}
}

func (p *params) uint(name string) (n uint64) {
	p.parse(name, func(v string) (err error) { n, err = strconv.ParseUint(v, 10, 64); return })
	return n
}

func (p *params) int(name string) (n int64) {
	p.parse(name, func(v string) (err error) { n, err = strconv.ParseInt(v, 10, 64); return })
	return n
}

func (p *params) duration(name string) (d time.Duration) {
	p.parse(name, func(v string) (err error) { d, err = time.ParseDuration(v); return })
	return d
}

// Serve answers one GET /replicate request: a bootstrap leg, or a WAL
// tail long-polling up to the requested wait when the follower is
// caught up. A zero or unservable cursor gets an empty tail whose next
// cursor is zero, which sends the follower to the bootstrap legs. A
// malformed parameter answers 400 naming it. A mid-stream write failure
// is returned for logging; the status line is already gone by then, so
// the cut body is the client's signal (the image CRC trailer and the
// WAL frame checksums detect it).
func Serve(w http.ResponseWriter, r *http.Request, src LogSource) (ServeResult, error) {
	p := params{q: r.URL.Query()}
	if p.q.Get("manifest") != "" {
		return serveManifest(w, src)
	}
	if p.q.Get("segment") != "" {
		window, seq := p.int("segment"), p.uint("seq")
		if p.err != nil {
			http.Error(w, p.err.Error(), http.StatusBadRequest)
			return ServeResult{}, nil
		}
		return serveSegment(w, src, window, seq)
	}
	gen, off, wait := p.uint("gen"), p.int("off"), p.duration("wait")
	if p.err != nil {
		http.Error(w, p.err.Error(), http.StatusBadRequest)
		return ServeResult{}, nil
	}
	wait = min(wait, MaxWait)
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

// serveManifest ships the recovery root as JSON: which segments a
// bootstrapping follower needs, the tombstones it installs with them,
// the BaseGen it tails the log from, and the id mark it copies.
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
// the manifest has moved past answers 404, serving nothing; the
// follower refetches the manifest.
func serveSegment(w http.ResponseWriter, src LogSource, window int64, seq uint64) (ServeResult, error) {
	raw, err := src.ReadSegment(window, seq)
	if err != nil {
		http.Error(w, "replicate: "+err.Error(), http.StatusNotFound)
		return ServeResult{}, nil
	}
	w.Header().Set(HeaderStream, StreamSegment)
	w.Header().Set("Content-Type", "application/octet-stream")
	gen, off := src.LogCursor()
	setCursorHeaders(w, src, Cursor{Gen: gen, Off: off})
	n, err := w.Write(raw)
	return ServeResult{Stream: StreamSegment, Bytes: int64(n)}, err
}
