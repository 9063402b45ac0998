// The per-entry codec every set of entries the store frames shares:
// WAL register records (wal.go) and sealed segment images
// (segfile.go).
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
	"encoding/binary"
	"errors"
	"fmt"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/wire"
)

// appendEntry validates e and appends its encoding to b, refusing
// what parseEntry could not read back: an entry Validate refuses (as
// it does a camera with no valid grid form) or one wire.AppendRep
// refuses (a negative start).
func appendEntry(b []byte, e index.Entry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return b, err
	}
	if len(e.Provider) > wire.MaxProviderLen {
		return b, fmt.Errorf("provider %q too long", e.Provider[:32]+"…")
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, e.ID), uint64(len(e.Provider)))
	b = append(b, e.Provider...)
	if e.Camera == (fov.Camera{}) {
		return wire.AppendRep(append(b, 0), e.Rep)
	}
	return wire.AppendRep(fov.AppendCamera(append(b, 1), e.Camera), e.Rep)
}

// Per-field parse failures. Package-level so that rejecting an entry
// allocates nothing either.
var (
	errID          = errors.New("id")
	errProviderLen = errors.New("provider length")
	errProvider    = errors.New("provider")
	errFlags       = errors.New("flags")
	errCamera      = errors.New("camera")
	errRep         = errors.New("representative")
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
	if k <= 0 || plen > wire.MaxProviderLen {
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
		if len(b)-n < fov.CameraBytes {
			return e, nil, 0, errCamera
		}
		cam = fov.CameraAt(b[n:])
		n += fov.CameraBytes
	}
	rep, k := wire.RepAt(b[n:])
	if k == 0 {
		return e, nil, 0, errRep
	}
	n += k
	e = index.Entry{ID: id, Camera: cam, Rep: rep}
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
