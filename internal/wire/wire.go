// Package wire defines the client-server encoding of FoV uploads and the
// traffic accounting behind the paper's "networking traffic between the
// client and the server is negligible" claim.
//
// The compact binary codec is what a bandwidth-conscious mobile client
// sends: positions and azimuths on package fov's grid (1e-7 degree,
// ~1.1 cm; centidegrees) and varint-delta timestamps — about 20 bytes
// per video segment, versus megabytes for the segment's pixels. It
// round-trips a representative on the grid exactly.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"fovr/internal/fov"
	"fovr/internal/segment"
)

// Upload is one client contribution: the provider's identity plus the
// representative FoVs of the segments it recorded, and optionally the
// device's viewing geometry (format v2) so the cloud can filter with the
// real optics instead of a deployment default.
type Upload struct {
	Provider string                   `json:"provider"`
	Reps     []segment.Representative `json:"reps"`
	// Camera is the capturing device's optics; the zero value omits it.
	Camera fov.Camera `json:"camera,omitempty"`
}

// magicPrefix identifies the binary format; a version byte follows it.
// Version 1 uploads have no flags/camera block; version 2 adds a flag
// byte after the provider, with bit 0 indicating a camera block
// (half-angle in centidegrees u16, radius in centimeters u32).
var magicPrefix = [3]byte{'F', 'o', 'V'}

const (
	version1 = 1
	version2 = 2
)

// Encoding limits; uploads beyond these are malformed.
const (
	MaxProviderLen = 256
	MaxReps        = 1 << 20
)

// EncodeBinary serializes an upload in the compact binary format.
func EncodeBinary(u Upload) ([]byte, error) {
	if len(u.Provider) > MaxProviderLen {
		return nil, fmt.Errorf("wire: provider name %d bytes exceeds %d", len(u.Provider), MaxProviderLen)
	}
	if len(u.Reps) > MaxReps {
		return nil, fmt.Errorf("wire: %d reps exceed %d", len(u.Reps), MaxReps)
	}
	var flags byte
	if u.Camera != (fov.Camera{}) {
		if err := u.Camera.ValidOnGrid(); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
		flags = 1
	}
	b := append(make([]byte, 0, 16+len(u.Provider)+RepWireBytes*len(u.Reps)), magicPrefix[:]...)
	b = binary.AppendUvarint(append(b, version2), uint64(len(u.Provider)))
	b = append(append(b, u.Provider...), flags)
	if flags&1 != 0 {
		b = fov.AppendCamera(b, u.Camera)
	}
	b = binary.AppendUvarint(b, uint64(len(u.Reps)))
	for i, r := range u.Reps {
		var err error
		if b, err = AppendRep(b, r); err != nil {
			return nil, fmt.Errorf("wire: rep %d: %w", i, err)
		}
	}
	return b, nil
}

// AppendRep appends r as an upload and a store entry both frame it —
// its pose (fov.AppendPose), then its start and its duration as
// uvarints — refusing an invalid FoV and an interval that is inverted
// or starts before the epoch. RepAt reads it back.
func AppendRep(b []byte, r segment.Representative) ([]byte, error) {
	if err := r.FoV.Validate(); err != nil {
		return b, err
	}
	if r.EndMillis < r.StartMillis || r.StartMillis < 0 {
		return b, fmt.Errorf("bad interval [%d, %d]", r.StartMillis, r.EndMillis)
	}
	b = binary.AppendUvarint(fov.AppendPose(b, r.FoV), uint64(r.StartMillis))
	return binary.AppendUvarint(b, uint64(r.EndMillis-r.StartMillis)), nil
}

// RepAt decodes the representative at the start of b and returns the
// bytes it takes: 0 when b is truncated or the interval overflows. The
// caller validates its FoV.
func RepAt(b []byte) (segment.Representative, int) {
	if len(b) < fov.PoseBytes {
		return segment.Representative{}, 0
	}
	n := fov.PoseBytes
	start, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return segment.Representative{}, 0
	}
	n += k
	dur, k := binary.Uvarint(b[n:])
	if k <= 0 || start > math.MaxInt64 || dur > math.MaxInt64-start {
		return segment.Representative{}, 0
	}
	return segment.Representative{FoV: fov.PoseAt(b), StartMillis: int64(start), EndMillis: int64(start + dur)}, n + k
}

// ErrBadMagic reports a payload that is not the binary upload format.
var ErrBadMagic = errors.New("wire: bad magic")

// DecodeBinary parses the compact binary format.
func DecodeBinary(data []byte) (Upload, error) {
	r := bytes.NewReader(data)
	var m [3]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || m != magicPrefix {
		return Upload{}, ErrBadMagic
	}
	ver, err := r.ReadByte()
	if err != nil || (ver != version1 && ver != version2) {
		return Upload{}, ErrBadMagic
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(r) }

	n, err := readUvarint()
	if err != nil || n > MaxProviderLen {
		return Upload{}, fmt.Errorf("wire: bad provider length")
	}
	prov := make([]byte, n)
	if _, err := io.ReadFull(r, prov); err != nil {
		return Upload{}, fmt.Errorf("wire: truncated provider: %w", err)
	}
	var cam fov.Camera
	if ver == version2 {
		flags, err := r.ReadByte()
		if err != nil {
			return Upload{}, fmt.Errorf("wire: truncated flags")
		}
		if flags&^byte(1) != 0 {
			return Upload{}, fmt.Errorf("wire: unknown flags %#x", flags)
		}
		if flags&1 != 0 {
			var cb [fov.CameraBytes]byte
			if _, err := io.ReadFull(r, cb[:]); err != nil {
				return Upload{}, fmt.Errorf("wire: truncated camera: %w", err)
			}
			cam = fov.CameraAt(cb[:])
			if err := cam.Validate(); err != nil {
				return Upload{}, fmt.Errorf("wire: %w", err)
			}
		}
	}
	count, err := readUvarint()
	if err != nil || count > MaxReps {
		return Upload{}, fmt.Errorf("wire: bad rep count")
	}
	u := Upload{Provider: string(prov), Camera: cam, Reps: make([]segment.Representative, 0, count)}
	rest := data[len(data)-r.Len():]
	for i := uint64(0); i < count; i++ {
		rep, n := RepAt(rest)
		if n == 0 {
			return Upload{}, fmt.Errorf("wire: rep %d truncated or its interval overflows", i)
		}
		if err := rep.FoV.Validate(); err != nil {
			return Upload{}, fmt.Errorf("wire: rep %d: %w", i, err)
		}
		u.Reps = append(u.Reps, rep)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return Upload{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return u, nil
}

// RepWireBytes is the binary size of one representative FoV, assuming
// 2-byte varints for the duration and 6-byte varints for absolute
// millisecond timestamps: 10 fixed + ~8 varint = ~18 bytes. The paper's
// descriptor-size comparison uses the exact measured size instead; this
// constant is only a documentation-grade estimate.
const RepWireBytes = 18
