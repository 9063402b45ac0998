// Replication-facing view of the Disk store: a generation cursor and a
// tailing log reader (the bootstrap's manifest and segments are in
// tieredboot.go).
// Package replica layers leader-follower shipping on these primitives;
// they are exported here because only the store knows which bytes of
// which segment are committed whole records.
//
// The cursor contract: a position (gen, off) names the byte just past
// the last record a tailer has applied, in the segment wal-<gen>.log.
// Every position the store hands out (LogCursor, a manifest's
// (BaseGen, 0), retired sizes) is a record boundary, so a tailer that
// starts from a store-issued cursor and advances by whole ReadLog
// results only ever sees whole frames. A cursor the store cannot serve — its segment
// deleted, its offset past the committed size, or from a history that a
// replication bootstrap replaced — is answered with TailReset, never
// with wrong bytes.
package store

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// TailStatus classifies a ReadLog result.
type TailStatus int

const (
	// TailData: the returned bytes (possibly none) are whole frames from
	// the requested position; advance the cursor by their length.
	TailData TailStatus = iota
	// TailAdvance: the generation ended exactly at the requested offset;
	// resume at (gen+1, 0). A rotation changes no state — the log is one
	// sequence of records cut into generations, and a checkpoint only
	// moves what wal-gen held into segments — so the tailer keeps its
	// state and only moves the cursor.
	TailAdvance
	// TailReset: the cursor is unservable (segment gone, offset past the
	// committed size, or history replaced by FinishBootstrap); the
	// tailer must re-bootstrap.
	TailReset
)

// retiredKeep bounds how many completed generations keep their final
// size on record for TailAdvance detection; anything older answers
// TailReset.
const retiredKeep = 16

// maxTailChunk bounds one ReadLog result. A single over-long frame is
// still returned whole — the cap rounds down to a frame boundary, it
// never splits one.
const maxTailChunk = 4 << 20

// MaxTailBytes is the most one ReadLog result holds: one chunk, or one
// frame longer than a chunk. A tailer reads no more than this per
// response.
const MaxTailBytes = max(maxTailChunk, 8+maxRecordBytes)

// StoreID returns the persistent random identity of the data directory,
// created on first Open and stable across restarts. Replication uses it
// to detect a leader whose directory was wiped or replaced: same
// generation numbers, different history.
func (d *Disk) StoreID() string { return d.storeID }

// LogCursor returns the current tail position: the live generation and
// its committed size.
func (d *Disk) LogCursor() (gen uint64, off int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walGen, d.walSize
}

// ReadLog returns committed log bytes from position (gen, off): whole
// frames only, at most maxTailChunk unless a single frame is longer.
// The status tells the tailer how to proceed; see TailStatus. The error
// is non-nil only for ErrClosed — an unservable cursor is TailReset,
// not an error, because lagging too far behind is an expected state.
func (d *Disk) ReadLog(gen uint64, off int64) ([]byte, TailStatus, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, TailReset, ErrClosed
	}
	curGen, curSize := d.walGen, d.walSize
	retiredSize, isRetired := d.retired[gen]
	d.mu.Unlock()

	var limit int64
	switch {
	case off < 0:
		return nil, TailReset, nil
	case gen == curGen:
		if off > curSize {
			// Ahead of the committed tail: the tailer applied records a
			// crash un-persisted, or follows a different history.
			return nil, TailReset, nil
		}
		if off == curSize {
			return nil, TailData, nil // caught up
		}
		limit = curSize
	case isRetired:
		if off == retiredSize {
			return nil, TailAdvance, nil
		}
		if off > retiredSize {
			return nil, TailReset, nil
		}
		limit = retiredSize
	default:
		return nil, TailReset, nil
	}

	end := limit
	if end-off > maxTailChunk {
		end = off + maxTailChunk
	}
	f, err := os.Open(filepath.Join(d.opts.Dir, walName(gen)))
	if err != nil {
		// Checkpointing deleted the segment between the size check and
		// the open; the tailer is now behind the retention horizon.
		return nil, TailReset, nil
	}
	defer f.Close()
	buf := make([]byte, end-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, TailReset, nil
	}
	n := wholeFrames(buf)
	if n == 0 && end < limit {
		// The first frame alone exceeds the chunk cap: return it whole.
		// Committed sizes are frame boundaries, so the frame cannot run
		// past limit.
		frameLen := int64(8 + binary.LittleEndian.Uint32(buf[0:]))
		buf = make([]byte, frameLen)
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, TailReset, nil
		}
		return buf, TailData, nil
	}
	return buf[:n], TailData, nil
}

// wholeFrames returns the length of the longest prefix of data that
// consists of complete frames (length-prefix accounting only; checksums
// are the reader's business).
func wholeFrames(data []byte) int {
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecordBytes || off+8+n > len(data) {
			break
		}
		off += 8 + n
	}
	return off
}

// WaitForLog blocks until position (gen, off) has something actionable —
// new bytes, a rotation past gen, or an unservable cursor — or until ctx
// expires or the store closes. A nil return means ReadLog will not
// report "caught up" for this position right now (though a concurrent
// tailer may consume the news first).
func (d *Disk) WaitForLog(ctx context.Context, gen uint64, off int64) error {
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return ErrClosed
		}
		caughtUp := gen == d.walGen && off == d.walSize
		ch := d.notifyCh
		d.mu.Unlock()
		if !caughtUp {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-d.done:
			return ErrClosed
		}
	}
}

// loadStoreID reads the directory's persistent identity, minting and
// persisting a fresh random one on first open.
func loadStoreID(dir string) (string, error) {
	path := filepath.Join(dir, "storeid")
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		return string(data), nil
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("store: mint store id: %w", err)
	}
	id := hex.EncodeToString(raw[:])
	if err := os.WriteFile(path, []byte(id), 0o644); err != nil {
		return "", fmt.Errorf("store: persist store id: %w", err)
	}
	return id, nil
}
