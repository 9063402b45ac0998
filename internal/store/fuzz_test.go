package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/index"
)

// FuzzWALDecode hammers the WAL decoder with arbitrary bytes and checks
// the invariants recovery depends on:
//
//   - it never panics and never claims more valid bytes than exist;
//   - the valid prefix is a fixed point: decoding data[:valid] is clean
//     (no error, nothing further truncated) and yields the same records,
//     which is what makes the on-disk truncation in recover() safe;
//   - decoded records re-encode and decode back to themselves, so a
//     recovered log can always be journaled again.
func FuzzWALDecode(f *testing.F) {
	// Seeds: a healthy two-record log, the same log torn mid-payload,
	// torn mid-header, with a corrupted byte, and degenerate inputs.
	var healthy bytes.Buffer
	if err := appendRecord(&healthy, Record{Op: opRegister, Entries: batch(1, 3, "alice")}); err != nil {
		f.Fatal(err)
	}
	if err := appendRecord(&healthy, Record{Op: opRemove, IDs: []uint64{2, 9000}}); err != nil {
		f.Fatal(err)
	}
	h := healthy.Bytes()
	f.Add(h)
	f.Add(h[:len(h)-3])
	f.Add(h[:5])
	corrupt := append([]byte(nil), h...)
	corrupt[12] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := DecodeWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if err != nil && valid == len(data) {
			t.Fatalf("error %v but all %d bytes claimed valid", err, valid)
		}
		recs2, valid2, err2 := DecodeWAL(data[:valid])
		if err2 != nil || valid2 != valid {
			t.Fatalf("valid prefix not a fixed point: valid2=%d err2=%v", valid2, err2)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatal("re-decoding the valid prefix changed the records")
		}
		var re bytes.Buffer
		for _, rec := range recs {
			if aerr := appendRecord(&re, rec); aerr != nil {
				t.Fatalf("decoded record does not re-encode: %v", aerr)
			}
		}
		recs3, valid3, err3 := DecodeWAL(re.Bytes())
		if err3 != nil || valid3 != re.Len() {
			t.Fatalf("re-encoded log dirty: valid=%d/%d err=%v", valid3, re.Len(), err3)
		}
		if !reflect.DeepEqual(recs, recs3) {
			t.Fatal("records changed across encode/decode round trip")
		}
	})
}

// FuzzSegmentDecode hammers the segment image decoder with arbitrary
// bytes and checks
// the invariants the recovery sweep and tiered bootstrap depend on:
//
//   - it never panics, whatever the input;
//   - every failure wraps ErrCorrupt, so recovery can tell "damaged
//     file" from programming errors and InstallSegment can reject bad
//     leader payloads uniformly;
//   - the scanner recovery, checkpoints and sealed reads run
//     (walkSegment) agrees with DecodeSegment on accept/reject, ids and
//     entry boundaries: the records it hands out tile the block, and
//     each parses on its own (readEntry, no interning) to
//     exactly the decoded entry — so interning changes no value;
//   - an accepted segment round-trips: re-encoding the decoded entries
//     reproduces the identical image (segments are canonical — sorted
//     by id, deterministic compression), which is what makes the CRC in
//     the manifest a complete identity for the file.
func FuzzSegmentDecode(f *testing.F) {
	// Seeds: a healthy segment whose block deflates and one whose block
	// stays raw, truncations in the header and mid-block, a bit flip,
	// and degenerate inputs.
	rng := rand.New(rand.NewSource(1))
	for i, entries := range [][]index.Entry{batch(1, 40, "alice"), {incompressibleEntry(5, 3, rng)}} {
		img, _, err := EncodeSegment(3, entries)
		if err != nil {
			f.Fatal(err)
		}
		if deflated := img[5]&segFlagDeflate != 0; deflated != (i == 0) {
			f.Fatalf("seed segment %d: deflated=%v", i, deflated)
		}
		f.Add(img)
		f.Add(img[:segHeaderLen-2])
		f.Add(img[:len(img)-5])
		flipped := append([]byte(nil), img...)
		flipped[segHeaderLen+2] ^= 0x10
		f.Add(flipped)
	}
	// An empty image, and one mixing entries with and without a camera
	// block.
	mem := batch(100, 6, "bob")
	mem[1].Camera, mem[4].Camera = fov.Camera{}, fov.Camera{}
	for _, entries := range [][]index.Entry{nil, mem} {
		img, _, err := EncodeSegment(0, entries)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add([]byte{})
	f.Add([]byte("FoVG garbage that is long enough to pass the length gate .."))

	f.Fuzz(func(t *testing.T, data []byte) {
		window, entries, err := DecodeSegment(data)
		var ids []uint64
		var recs [][]byte
		sw, count, serr := walkSegment(data, func(e index.Entry, _, rec []byte) {
			ids = append(ids, e.ID)
			recs = append(recs, rec)
		})
		if (err == nil) != (serr == nil) {
			t.Fatalf("decoder and scanner disagree: decode err=%v, scan err=%v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(serr, ErrCorrupt) {
				t.Fatalf("failure does not wrap ErrCorrupt: %v / %v", err, serr)
			}
			return
		}
		if sw != window || count != len(entries) || len(ids) != len(entries) {
			t.Fatalf("scanner saw window %d, %d entries; decoder %d, %d", sw, count, window, len(entries))
		}
		_, _, block, berr := segmentBlock(data)
		if berr != nil {
			t.Fatalf("accepted segment's block does not verify: %v", berr)
		}
		if !bytes.Equal(bytes.Join(recs, nil), block) {
			t.Fatal("scanner records do not tile the block")
		}
		for i, rec := range recs {
			e, n, rerr := readEntry(rec)
			if rerr != nil || n != len(rec) || ids[i] != entries[i].ID || !reflect.DeepEqual(e, entries[i]) {
				t.Fatalf("record %d: parses to %+v (%d of %d bytes, err %v), decoded %+v",
					i, e, n, len(rec), rerr, entries[i])
			}
		}
		// Accepted: ids must be unique and ascending (decode rejects
		// anything else), and the entries must re-encode into a segment
		// that decodes back to the same state. Byte-identity is NOT
		// required here — a forged image could carry an equivalent but
		// differently-compressed block; identity of canonical writers is
		// covered by TestSegmentEncodeDecodeRoundTrip.
		for i := 1; i < len(entries); i++ {
			if entries[i].ID <= entries[i-1].ID {
				t.Fatalf("accepted segment has non-ascending ids at %d", i)
			}
		}
		re, crc, eerr := EncodeSegment(window, entries)
		if eerr != nil {
			t.Fatalf("decoded entries do not re-encode: %v", eerr)
		}
		if crc != segTrailerCRC(re) {
			t.Fatal("re-encode CRC differs from its own trailer")
		}
		window2, entries2, derr := DecodeSegment(re)
		if derr != nil || window2 != window || !reflect.DeepEqual(entries, entries2) {
			t.Fatalf("round trip changed the segment: err=%v", derr)
		}
	})
}
