// The per-entry codec every set of entries the store frames shares:
// WAL register records (wal.go) and images — sealed segments,
// checkpoints and the replication memtable leg (segfile.go).
//
// Entry layout (little endian):
//
//	id uvarint | provider len uvarint | provider bytes |
//	flags u8 (bit0: camera block follows) |
//	[half-angle u16 centideg | radius u32 cm] |
//	lat i32 (1e-7 deg) | lng i32 | theta u16 (centideg) |
//	start uvarint (ms) | duration uvarint (ms)
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/segment"
)

// maxProviderLen bounds a provider name, so a corrupt length cannot
// demand an absurd allocation.
const maxProviderLen = 256

// appendEntry validates e and appends its encoding to buf.
func appendEntry(buf *bytes.Buffer, e index.Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if len(e.Provider) > maxProviderLen {
		return fmt.Errorf("provider %q too long", e.Provider[:32]+"…")
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

// parseEntry decodes and validates the entry at the start of b, as
// encoded by appendEntry — the one entry parser every reader shares.
// The entry comes back without its Provider: prov aliases b, and n is
// the number of bytes the entry occupies. It allocates nothing, so a
// caller that only checks entries or copies their bytes pays for no
// strings.
func parseEntry(b []byte) (e index.Entry, prov []byte, n int, err error) {
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

// readEntry is parseEntry plus the entry's own Provider string.
func readEntry(b []byte) (index.Entry, int, error) {
	e, prov, n, err := parseEntry(b)
	if err != nil {
		return e, 0, err
	}
	e.Provider = string(prov)
	return e, n, nil
}
