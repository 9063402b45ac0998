// Images: the one container for a set of entries, on disk and on the
// wire. A sealed segment is the image of one time window — immutable
// once written, named by the manifest (manifest.go), the recovery root
// that says which segment files are live — and the replication
// bootstrap ships it as its file bytes.
//
// Image layout (all integers little-endian):
//
//	magic   "FoVG"              4 bytes
//	version u8  = 1
//	flags   u8  (bit0: block is flate-compressed)
//	window  i64                 the window key (floor(start/window))
//	count   u32                 entries in the block
//	rawLen  u32                 uncompressed block length
//	blockLen u32                stored block length
//	block   blockLen bytes      count entries (entry.go), ascending ids
//	crc32   u32                 IEEE, over everything before it
//
// A sealed entry lives only in its segment file: the store keeps each
// segment's manifest meta and an id→window map, and reads entries back
// from the file when it needs them.
package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fovr/internal/index"
)

const (
	segMagic   = "FoVG"
	segVersion = 1
	// segFlagDeflate marks the block as flate-compressed.
	segFlagDeflate = 1 << 0
	// segHeaderLen is the fixed prefix before the block.
	segHeaderLen = 4 + 1 + 1 + 8 + 4 + 4 + 4
	// maxSegmentBlock bounds the uncompressed block a decoder will
	// allocate; a corrupt or hostile header cannot demand more. It caps
	// one window's segment: a checkpoint seals each window apart.
	maxSegmentBlock = 1 << 30
	// maxSegmentEntries bounds the entry count a header may claim.
	maxSegmentEntries = 1 << 26
)

// segmentFileName names a sealed segment: seg-<window>-<seq>.fovg. The
// window key may be negative (epochs before 1970 exist in tests), so
// parsing splits on the LAST dash.
func segmentFileName(window int64, seq uint64) string {
	return fmt.Sprintf("seg-%d-%d.fovg", window, seq)
}

// stagedFileName names a bootstrap-staged segment not yet promoted into
// the live set.
func stagedFileName(window int64, seq uint64) string {
	return fmt.Sprintf("staged-%d-%d.fovg", window, seq)
}

// parseSegmentName inverts segmentFileName (and stagedFileName when
// staged is true). ok is false for any file that is not a well-formed
// segment name.
func parseSegmentName(name string) (window int64, seq uint64, staged, ok bool) {
	rest := ""
	switch {
	case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".fovg"):
		rest = strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".fovg")
	case strings.HasPrefix(name, "staged-") && strings.HasSuffix(name, ".fovg"):
		rest = strings.TrimSuffix(strings.TrimPrefix(name, "staged-"), ".fovg")
		staged = true
	default:
		return 0, 0, false, false
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return 0, 0, false, false
	}
	w, err1 := strconv.ParseInt(rest[:i], 10, 64)
	s, err2 := strconv.ParseUint(rest[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false, false
	}
	return w, s, staged, true
}

// EncodeSegment serializes one window's entries into an image and
// returns it with its trailer CRC (the value the manifest records). Entries are sorted by
// ID first so equal logical content always produces identical bytes;
// an invalid entry or a repeated id fails the encode.
func EncodeSegment(window int64, entries []index.Entry) ([]byte, uint32, error) {
	b, err := newBlockBuilder(entries)
	if err != nil {
		return nil, 0, err
	}
	block, count := b.finish()
	return frameSegment(window, count, block)
}

// blockBuilder assembles a segment block in ascending id order from two
// sources: fresh entries, encoded once up front, and sealed survivors,
// spliced in as the encoded bytes they already are. A survivor's bytes
// are exactly what appendEntry makes of its decoded entry, so a block
// built by splicing is the block EncodeSegment would build from the
// decoded merge.
type blockBuilder struct {
	out   []byte
	fresh []byte   // fresh entries, encoded in ascending id order
	ids   []uint64 // ids[i] is fresh entry i's id
	ends  []int    // ends[i] is where fresh entry i ends in fresh
	next  int      // first fresh entry not yet in out
	count int      // entries in out
}

// newBlockBuilder sorts and encodes the fresh entries.
func newBlockBuilder(fresh []index.Entry) (*blockBuilder, error) {
	sorted := append([]index.Entry(nil), fresh...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	b := &blockBuilder{ids: make([]uint64, len(sorted)), ends: make([]int, len(sorted))}
	var buf bytes.Buffer
	for i, e := range sorted {
		if i > 0 && e.ID == sorted[i-1].ID {
			return nil, fmt.Errorf("store: encode segment: duplicate id %d", e.ID)
		}
		if err := appendEntry(&buf, e); err != nil {
			return nil, fmt.Errorf("store: encode segment entry %d: %w", e.ID, err)
		}
		b.ids[i], b.ends[i] = e.ID, buf.Len()
	}
	b.fresh = buf.Bytes()
	return b, nil
}

// splice appends one survivor's encoded bytes after every fresh entry
// with a smaller id. Survivors must arrive in ascending id order, and
// none may share an id with a fresh entry.
func (b *blockBuilder) splice(id uint64, rec []byte) {
	j := b.next
	for j < len(b.ids) && b.ids[j] < id {
		j++
	}
	b.takeFresh(j)
	b.out = append(b.out, rec...)
	b.count++
}

// takeFresh moves fresh entries [next, j) into out.
func (b *blockBuilder) takeFresh(j int) {
	if j == b.next {
		return
	}
	from := 0
	if b.next > 0 {
		from = b.ends[b.next-1]
	}
	b.out = append(b.out, b.fresh[from:b.ends[j-1]]...)
	b.count += j - b.next
	b.next = j
}

// finish returns the complete block and its entry count.
func (b *blockBuilder) finish() ([]byte, int) {
	if b.count == 0 {
		return b.fresh, len(b.ids) // nothing spliced: the block is the fresh run
	}
	b.takeFresh(len(b.ids))
	return b.out, b.count
}

// deflaters recycles segment compressors: a new flate.Writer allocates
// and clears about a megabyte of tables, and a Reset one writes the
// same bytes a new one would.
var deflaters = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // only an invalid level fails
	}
	return zw
}}

// frameSegment wraps a block of count encoded entries into a complete
// segment image — header, block (compressed when that makes it
// smaller), trailer CRC — and returns the image and its CRC. Every
// segment writer ends here.
func frameSegment(window int64, count int, block []byte) ([]byte, uint32, error) {
	if count > maxSegmentEntries {
		return nil, 0, fmt.Errorf("store: segment with %d entries exceeds cap %d", count, maxSegmentEntries)
	}
	rawLen := len(block)
	if rawLen > maxSegmentBlock {
		return nil, 0, fmt.Errorf("store: segment block %d bytes exceeds cap %d", rawLen, maxSegmentBlock)
	}
	stored := block
	flags := byte(0)
	if rawLen > 0 {
		var z bytes.Buffer
		zw := deflaters.Get().(*flate.Writer)
		zw.Reset(&z)
		_, err := zw.Write(block)
		if err == nil {
			err = zw.Close()
		}
		deflaters.Put(zw)
		if err != nil {
			return nil, 0, err
		}
		// Incompressible blocks stay raw: never pay decompression for a
		// block that got bigger.
		if z.Len() < rawLen {
			stored = z.Bytes()
			flags |= segFlagDeflate
		}
	}
	out := make([]byte, 0, segHeaderLen+len(stored)+4)
	out = append(out, segMagic...)
	out = append(out, segVersion, flags)
	out = binary.LittleEndian.AppendUint64(out, uint64(window))
	out = binary.LittleEndian.AppendUint32(out, uint32(count))
	out = binary.LittleEndian.AppendUint32(out, uint32(rawLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(stored)))
	out = append(out, stored...)
	sum := crc32.ChecksumIEEE(out)
	out = binary.LittleEndian.AppendUint32(out, sum)
	return out, sum, nil
}

// segmentBlock verifies a complete segment image's framing — magic,
// version, flags, header caps, total length, trailer CRC — and returns
// its window, its entry count and its block, inflated when stored
// compressed.
func segmentBlock(data []byte) (window int64, count int, block []byte, err error) {
	if len(data) < segHeaderLen+4 {
		return 0, 0, nil, fmt.Errorf("%w: segment truncated at %d bytes", ErrCorrupt, len(data))
	}
	if string(data[:4]) != segMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if data[4] != segVersion {
		return 0, 0, nil, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, data[4])
	}
	flags := data[5]
	if flags&^byte(segFlagDeflate) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: unknown segment flags %#x", ErrCorrupt, flags)
	}
	window = int64(binary.LittleEndian.Uint64(data[6:]))
	n := binary.LittleEndian.Uint32(data[14:])
	rawLen := binary.LittleEndian.Uint32(data[18:])
	blockLen := binary.LittleEndian.Uint32(data[22:])
	if rawLen > maxSegmentBlock || n > maxSegmentEntries {
		return 0, 0, nil, fmt.Errorf("%w: segment header claims %d bytes / %d entries", ErrCorrupt, rawLen, n)
	}
	if uint64(len(data)) != uint64(segHeaderLen)+uint64(blockLen)+4 {
		return 0, 0, nil, fmt.Errorf("%w: segment is %d bytes, header implies %d",
			ErrCorrupt, len(data), uint64(segHeaderLen)+uint64(blockLen)+4)
	}
	if crc32.ChecksumIEEE(data[:len(data)-4]) != segTrailerCRC(data) {
		return 0, 0, nil, fmt.Errorf("%w: segment checksum mismatch", ErrCorrupt)
	}
	block = data[segHeaderLen : segHeaderLen+int(blockLen)]
	if flags&segFlagDeflate != 0 {
		// DEFLATE expands at most 1032:1, so no header gets to size an
		// allocation beyond what its stored block could inflate to.
		if uint64(rawLen) > 1032*uint64(blockLen) {
			return 0, 0, nil, fmt.Errorf("%w: segment claims %d bytes from a %d-byte block", ErrCorrupt, rawLen, blockLen)
		}
		raw := make([]byte, rawLen)
		zr := flate.NewReader(bytes.NewReader(block))
		if _, err := io.ReadFull(zr, raw); err != nil {
			return 0, 0, nil, fmt.Errorf("%w: segment block inflate: %v", ErrCorrupt, err)
		}
		// The stream must end exactly at rawLen bytes.
		if n, err := io.ReadFull(zr, make([]byte, 1)); n != 0 || err != io.EOF {
			return 0, 0, nil, fmt.Errorf("%w: segment block does not end at %d bytes (%v)", ErrCorrupt, rawLen, err)
		}
		block = raw
	}
	if len(block) != int(rawLen) {
		return 0, 0, nil, fmt.Errorf("%w: segment block is %d bytes, header says %d", ErrCorrupt, len(block), rawLen)
	}
	if n > rawLen {
		// Every entry costs at least one byte.
		return 0, 0, nil, fmt.Errorf("%w: segment claims %d entries in %d bytes", ErrCorrupt, n, rawLen)
	}
	return window, int(n), block, nil
}

// walkSegment is the one segment verifier: it checks a complete image's
// framing (segmentBlock), every entry (parseEntry's checks),
// strictly ascending ids, and that the header's count of entries fills
// the block exactly. fn, when not nil, sees each entry in id order —
// without its Provider — with its provider bytes and its encoded bytes,
// both aliasing data or the inflated block; fn copies what it keeps. fn
// runs before later entries are checked, so a caller keeps nothing of a
// walk that returns an error. Every failure wraps ErrCorrupt.
func walkSegment(data []byte, fn func(e index.Entry, prov, rec []byte)) (window int64, count int, err error) {
	window, count, block, err := segmentBlock(data)
	if err != nil {
		return 0, 0, err
	}
	off := 0
	var prev uint64
	for i := 0; i < count; i++ {
		e, prov, n, err := parseEntry(block[off:])
		if err != nil {
			return 0, 0, fmt.Errorf("%w: segment entry %d: %v", ErrCorrupt, i, err)
		}
		// Segments are canonical: strictly ascending ids. Rejecting
		// anything else keeps one logical segment to one block image.
		if i > 0 && e.ID <= prev {
			return 0, 0, fmt.Errorf("%w: segment ids not ascending (%d after %d)", ErrCorrupt, e.ID, prev)
		}
		if fn != nil {
			fn(e, prov, block[off:off+n])
		}
		prev = e.ID
		off += n
	}
	if off != len(block) {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes after segment entries", ErrCorrupt, len(block)-off)
	}
	return window, count, nil
}

// providerNames interns provider strings within one segment: a phone
// uploads many segments under one name, and without interning every
// decoded entry would own a copy of it.
type providerNames map[string]string

func (p *providerNames) intern(b []byte) string {
	if s, ok := (*p)[string(b)]; ok {
		return s
	}
	if *p == nil {
		*p = make(providerNames)
	}
	s := string(b)
	(*p)[s] = s
	return s
}

// DecodeSegment parses a complete image through the same walkSegment
// that recovery, checkpoints and sealed reads use, and interns
// providers as sealed reads do: entries of one provider share one
// Provider string. Every failure is ErrCorrupt-wrapped: an image is
// all-or-nothing, there is no valid prefix to salvage.
func DecodeSegment(data []byte) (window int64, entries []index.Entry, err error) {
	var names providerNames
	window, _, err = walkSegment(data, func(e index.Entry, prov, _ []byte) {
		e.Provider = names.intern(prov)
		entries = append(entries, e)
	})
	if err != nil {
		return 0, nil, err
	}
	return window, entries, nil
}

// segTrailerCRC extracts the trailer CRC of a complete segment image
// (the value the manifest records). data must be at least 4 bytes.
func segTrailerCRC(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[len(data)-4:])
}

// readSegmentFile maps one segment file (mapFile) and walks it with
// walkSegment, returning the window, entry count, trailer CRC and file
// size. The mapping is released before return — fn's byte slices die
// with it — so a sealed entry costs heap only while a caller holds what
// fn copied out.
func readSegmentFile(path string, fn func(e index.Entry, prov, rec []byte)) (window int64, count int, crc uint32, size int64, err error) {
	data, done, err := mapFile(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer done()
	window, count, err = walkSegment(data, fn)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return window, count, segTrailerCRC(data), int64(len(data)), nil
}
