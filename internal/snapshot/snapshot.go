// Package snapshot is the compact binary codec for sets of indexed
// representative FoVs with their ids and providers. The durable store's
// memtable checkpoints are whole snapshot files; its WAL records and
// segment files reuse the per-entry codec (AppendEntry, ParseEntry).
// Restore uses STR bulk loading, so a 50,000-segment index rebuilds in
// tens of milliseconds.
//
// Format (little endian):
//
//	magic "FoVS" | version u8 (=2) | count uvarint |
//	  per entry: id uvarint | provider len uvarint | provider bytes |
//	             flags u8 (bit0: camera block follows) |
//	             [half-angle u16 centideg | radius u32 cm] |
//	             lat i32 (1e-7 deg) | lng i32 | theta u16 (centideg) |
//	             start uvarint (ms) | duration uvarint (ms)
//	crc32 (IEEE) of everything before it
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/rtree"
	"fovr/internal/segment"
)

var magic = [4]byte{'F', 'o', 'V', 'S'}

const version = 2

// limits guard against corrupted headers allocating absurd amounts.
const (
	maxEntries     = 1 << 26
	maxProviderLen = 256
)

// AppendEntry validates e and appends its wire encoding to buf — the
// per-entry format shared by snapshots and the store's WAL records (see
// the package comment for the layout).
func AppendEntry(buf *bytes.Buffer, e index.Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if len(e.Provider) > maxProviderLen {
		return fmt.Errorf("snapshot: provider %q too long", e.Provider[:32]+"…")
	}
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	putUvarint(e.ID)
	putUvarint(uint64(len(e.Provider)))
	buf.WriteString(e.Provider)
	if e.Camera != (fov.Camera{}) {
		buf.WriteByte(1)
		var cb [6]byte
		binary.LittleEndian.PutUint16(cb[0:], uint16(math.Round(e.Camera.HalfAngleDeg*100)))
		binary.LittleEndian.PutUint32(cb[2:], uint32(math.Round(e.Camera.RadiusMeters*100)))
		buf.Write(cb[:])
	} else {
		buf.WriteByte(0)
	}
	var fixed [10]byte
	binary.LittleEndian.PutUint32(fixed[0:], uint32(int32(math.Round(e.Rep.FoV.P.Lat*1e7))))
	binary.LittleEndian.PutUint32(fixed[4:], uint32(int32(math.Round(e.Rep.FoV.P.Lng*1e7))))
	binary.LittleEndian.PutUint16(fixed[8:], uint16(math.Round(geo.NormalizeDeg(e.Rep.FoV.Theta)*100))%36000)
	buf.Write(fixed[:])
	putUvarint(uint64(e.Rep.StartMillis))
	putUvarint(uint64(e.Rep.EndMillis - e.Rep.StartMillis))
	return nil
}

// writeChunk is the flush granularity of the streaming Write: entries
// accumulate in a small buffer that is flushed to the destination every
// time it passes this size, so the whole-snapshot O(state) buffer of the
// original implementation never exists.
const writeChunk = 32 << 10

// Write serializes entries to w. All entries are validated before the
// first byte is emitted, so an invalid entry never leaves a partial
// stream behind; write errors from w can still truncate one mid-stream
// (the CRC trailer lets the reader detect that).
func Write(w io.Writer, entries []index.Entry) error {
	if len(entries) > maxEntries {
		return fmt.Errorf("snapshot: %d entries exceed limit", len(entries))
	}
	for i, e := range entries {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("snapshot: entry %d: %w", i, err)
		}
		if len(e.Provider) > maxProviderLen {
			return fmt.Errorf("snapshot: entry %d: provider too long", i)
		}
	}
	h := crc32.NewIEEE()
	out := io.MultiWriter(w, h)
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(entries)))
	buf.Write(tmp[:n])
	for i, e := range entries {
		if err := AppendEntry(&buf, e); err != nil {
			return fmt.Errorf("snapshot: entry %d: %w", i, err)
		}
		if buf.Len() >= writeChunk {
			if _, err := out.Write(buf.Bytes()); err != nil {
				return err
			}
			buf.Reset()
		}
	}
	if buf.Len() > 0 {
		if _, err := out.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	_, err := w.Write(crc[:])
	return err
}

// ErrCorrupt reports a snapshot that fails structural or checksum
// validation.
var ErrCorrupt = errors.New("snapshot: corrupt")

// Read parses a snapshot produced by Write.
func Read(r io.Reader) ([]index.Entry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	body, crc := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(crc) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if !bytes.Equal(body[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := body[len(magic)]; v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	rest := body[len(magic)+1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > maxEntries {
		return nil, fmt.Errorf("%w: bad entry count", ErrCorrupt)
	}
	rest = rest[n:]
	entries := make([]index.Entry, 0, count)
	seen := make(map[uint64]struct{}, count)
	for i := uint64(0); i < count; i++ {
		e, n, err := ReadEntry(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, i, err)
		}
		rest = rest[n:]
		// A duplicate id here would otherwise surface much later, as a
		// baffling "duplicate id" failure out of the index rebuild.
		if _, dup := seen[e.ID]; dup {
			return nil, fmt.Errorf("%w: entry %d: duplicate id %d", ErrCorrupt, i, e.ID)
		}
		seen[e.ID] = struct{}{}
		entries = append(entries, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return entries, nil
}

// Per-field parse failures. Package-level so that rejecting an entry
// allocates nothing either.
var (
	errID          = errors.New("id")
	errProviderLen = errors.New("provider length")
	errProvider    = errors.New("provider")
	errFlags       = errors.New("flags")
	errCamera      = errors.New("camera")
	errPose        = errors.New("pose")
	errStart       = errors.New("start")
	errInterval    = errors.New("interval")
)

// ParseEntry decodes and validates the entry at the start of b, as
// encoded by AppendEntry — the one entry parser every reader shares.
// The entry comes back without its Provider: prov aliases b, and n is
// the number of bytes the entry occupies. It allocates nothing, so a
// caller that only checks entries or copies their bytes pays for no
// strings.
func ParseEntry(b []byte) (e index.Entry, prov []byte, n int, err error) {
	id, k := binary.Uvarint(b)
	if k <= 0 {
		return e, nil, 0, errID
	}
	n = k
	plen, k := binary.Uvarint(b[n:])
	if k <= 0 || plen > maxProviderLen {
		return e, nil, 0, errProviderLen
	}
	n += k
	if uint64(len(b)-n) < plen {
		return e, nil, 0, errProvider
	}
	prov = b[n : n+int(plen)]
	n += int(plen)
	if n >= len(b) || b[n]&^byte(1) != 0 {
		return e, nil, 0, errFlags
	}
	flags := b[n]
	n++
	var cam fov.Camera
	if flags&1 != 0 {
		if len(b)-n < 6 {
			return e, nil, 0, errCamera
		}
		cam = fov.Camera{
			HalfAngleDeg: float64(binary.LittleEndian.Uint16(b[n:])) / 100,
			RadiusMeters: float64(binary.LittleEndian.Uint32(b[n+2:])) / 100,
		}
		n += 6
	}
	if len(b)-n < 10 {
		return e, nil, 0, errPose
	}
	fixed := b[n : n+10]
	n += 10
	start, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return e, nil, 0, errStart
	}
	n += k
	dur, k := binary.Uvarint(b[n:])
	if k <= 0 || start > math.MaxInt64 || dur > math.MaxInt64-start {
		return e, nil, 0, errInterval
	}
	n += k
	e = index.Entry{
		ID:     id,
		Camera: cam,
		Rep: segment.Representative{
			FoV: fov.FoV{
				P: geo.Point{
					Lat: float64(int32(binary.LittleEndian.Uint32(fixed[0:]))) / 1e7,
					Lng: float64(int32(binary.LittleEndian.Uint32(fixed[4:]))) / 1e7,
				},
				Theta: float64(binary.LittleEndian.Uint16(fixed[8:])) / 100,
			},
			StartMillis: int64(start),
			EndMillis:   int64(start + dur),
		},
	}
	if err := e.Validate(); err != nil {
		return index.Entry{}, nil, 0, err
	}
	return e, prov, n, nil
}

// ReadEntry is ParseEntry plus the entry's own Provider string: it
// decodes and validates the entry at the start of b and returns the
// number of bytes it occupies.
func ReadEntry(b []byte) (index.Entry, int, error) {
	e, prov, n, err := ParseEntry(b)
	if err != nil {
		return e, 0, err
	}
	e.Provider = string(prov)
	return e, n, nil
}

// Restore rebuilds an R-tree index from a snapshot via STR bulk loading.
func Restore(r io.Reader, opts rtree.Options) (*index.RTree, error) {
	entries, err := Read(r)
	if err != nil {
		return nil, err
	}
	return index.BulkLoadRTree(opts, entries)
}
