// WAL record framing and codec. A log segment is a flat sequence of
// length-prefixed, checksummed records:
//
//	length u32 LE (payload bytes) | crc32 u32 LE (IEEE, of payload) | payload
//
// payload:
//
//	op u8 (1 = register, 2 = remove; bit 0x80 = trace follows) |
//	  [traceLen uvarint | trace bytes, when 0x80 set] | count uvarint |
//	  register: count entries in the entry encoding (entry.go)
//	  remove:   count ids, uvarint each
//
// One record is one committed state change — a whole upload batch or a
// whole removal set — so replay never observes half an upload. The
// framing is what makes torn writes detectable: a record whose frame
// runs past end-of-file, or whose full frame is present at end-of-file
// but fails its checksum (sectors persisted out of order), is a torn
// tail and recovery truncates it; a checksum failure with further data
// behind it cannot be a tear and is reported as corruption.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"fovr/internal/index"
)

// Record operation codes.
const (
	opRegister byte = 1
	opRemove   byte = 2
)

// flagTrace marks a record carrying an originating trace ID. The flag
// rides the op byte's high bit so untraced records encode byte-for-byte
// identically to every earlier WAL version: old logs replay unchanged,
// and replication (which ships WAL bytes verbatim) is oblivious. A
// flagged payload inserts `traceLen uvarint | trace bytes` between the
// op byte and the item count.
const flagTrace byte = 0x80

// maxTraceBytes bounds a propagated trace ID; anything longer is
// rejected at append and treated as corruption at decode.
const maxTraceBytes = 256

// Exported record op codes, for callers that synthesize or inspect WAL
// frames outside this package (replication tests and tooling).
const (
	OpRegister = opRegister
	OpRemove   = opRemove
)

// AppendWALRecord validates rec and appends its framed encoding to buf
// — the exact bytes a leader ships to its replicas.
func AppendWALRecord(buf *bytes.Buffer, rec Record) error {
	return appendRecord(buf, rec)
}

// maxRecordBytes bounds a single record's payload: larger length
// prefixes are garbage (a torn header or rot), never a real record.
// 64 MiB comfortably holds the largest upload the server accepts.
const maxRecordBytes = 64 << 20

// Record is one decoded WAL record: a registered entry batch or a
// removed id set, optionally stamped with the trace ID of the request
// that produced it.
type Record struct {
	Op      byte
	Entries []index.Entry // Op == opRegister
	IDs     []uint64      // Op == opRemove
	// Trace is the originating request's trace ID ("" when the request
	// was untraced). It survives the log so a follower replaying the
	// record can attribute its apply to the leader request that caused
	// it.
	Trace string
}

// ErrCorrupt reports WAL content that cannot be explained by a torn
// final write: a mid-log checksum failure or a checksummed record whose
// payload does not decode.
var ErrCorrupt = errors.New("store: wal corrupt")

// appendRecord validates rec and appends its framed encoding to buf.
func appendRecord(buf *bytes.Buffer, rec Record) error {
	if len(rec.Trace) > maxTraceBytes {
		return fmt.Errorf("store: trace id %d bytes exceeds %d", len(rec.Trace), maxTraceBytes)
	}
	op := rec.Op
	if rec.Trace != "" {
		op |= flagTrace
	}
	payload := append(make([]byte, 0, 16+len(rec.Trace)+48*len(rec.Entries)+8*len(rec.IDs)), op)
	if rec.Trace != "" {
		payload = append(binary.AppendUvarint(payload, uint64(len(rec.Trace))), rec.Trace...)
	}
	switch rec.Op {
	case opRegister:
		payload = binary.AppendUvarint(payload, uint64(len(rec.Entries)))
		for i, e := range rec.Entries {
			var err error
			if payload, err = appendEntry(payload, e); err != nil {
				return fmt.Errorf("store: record entry %d: %w", i, err)
			}
		}
	case opRemove:
		payload = binary.AppendUvarint(payload, uint64(len(rec.IDs)))
		for _, id := range rec.IDs {
			payload = binary.AppendUvarint(payload, id)
		}
	default:
		return fmt.Errorf("store: unknown record op %d", rec.Op)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("store: record payload %d bytes exceeds limit", len(payload))
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)
	return nil
}

// DecodeWAL parses a log segment's bytes. It returns the decoded
// records and the offset just past the last valid record. valid <
// len(data) with a nil error means the tail is torn (an incomplete
// final frame, or a full final frame failing its checksum) — the
// records are the durable prefix and the caller should truncate the
// segment to valid. A non-nil error is ErrCorrupt: damage that a torn
// final write cannot explain.
func DecodeWAL(data []byte) (recs []Record, valid int, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off, nil // torn header
		}
		n := int(binary.LittleEndian.Uint32(rest[0:]))
		if n > maxRecordBytes {
			return recs, off, nil // garbage length: torn header write
		}
		if len(rest) < 8+n {
			return recs, off, nil // frame runs past EOF: torn payload
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			if off+8+n == len(data) {
				// Final frame, full length, bad sum: payload sectors
				// never all reached the disk. Still a torn tail.
				return recs, off, nil
			}
			return recs, off, fmt.Errorf("%w: record at %d fails checksum with %d bytes behind it",
				ErrCorrupt, off, len(data)-(off+8+n))
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			// The frame checksummed clean, so the payload was written
			// this way: an incompatible writer or real corruption.
			return recs, off, fmt.Errorf("%w: record at %d: %v", ErrCorrupt, off, derr)
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	return recs, off, nil
}

// decodePayload decodes one checksummed record payload.
func decodePayload(payload []byte) (Record, error) {
	var rec Record
	rd := bytes.NewReader(payload)
	op, err := rd.ReadByte()
	if err != nil {
		return rec, errors.New("empty payload")
	}
	if op&flagTrace != 0 {
		op &^= flagTrace
		tlen, err := binary.ReadUvarint(rd)
		if err != nil || tlen == 0 || tlen > maxTraceBytes || tlen > uint64(rd.Len()) {
			return rec, errors.New("bad trace length")
		}
		trace := make([]byte, tlen)
		if _, err := rd.Read(trace); err != nil {
			return rec, errors.New("short trace")
		}
		rec.Trace = string(trace)
	}
	rec.Op = op
	// Every item occupies at least one payload byte, so a count beyond
	// the payload size is garbage — reject it before pre-allocating.
	count, err := binary.ReadUvarint(rd)
	if err != nil || count > uint64(len(payload)) {
		return rec, errors.New("bad item count")
	}
	switch op {
	case opRegister:
		rec.Entries = make([]index.Entry, 0, count)
		rest := payload[len(payload)-rd.Len():]
		for i := uint64(0); i < count; i++ {
			e, n, err := readEntry(rest)
			if err != nil {
				return rec, fmt.Errorf("entry %d: %v", i, err)
			}
			rest = rest[n:]
			rec.Entries = append(rec.Entries, e)
		}
		rd.Reset(rest)
	case opRemove:
		rec.IDs = make([]uint64, 0, count)
		for i := uint64(0); i < count; i++ {
			id, err := binary.ReadUvarint(rd)
			if err != nil {
				return rec, fmt.Errorf("id %d", i)
			}
			rec.IDs = append(rec.IDs, id)
		}
	default:
		return rec, fmt.Errorf("unknown op %d", op)
	}
	if rd.Len() != 0 {
		return rec, fmt.Errorf("%d trailing payload bytes", rd.Len())
	}
	return rec, nil
}
