package fov

import (
	"encoding/binary"
	"fmt"
	"math"

	"fovr/internal/geo"
)

// The grid is the fixed point at which a representative is stored,
// shipped and indexed: a coordinate in 1e-7° (~1.1 cm) as an int32, an
// azimuth or a half-angle in centidegrees as a uint16, a radius in
// centimetres as a uint32. The sensors are two orders of magnitude
// coarser. A value decoded from the grid converts back to its own code,
// so rounding twice is rounding once.
//
// The wire and the store frame a pose as its lat, lng and theta codes,
// and a camera as its half-angle and radius codes, little endian, in
// PoseBytes and CameraBytes.
const PoseBytes, CameraBytes = 10, 6

// CoordToGrid returns a latitude's or longitude's grid code.
func CoordToGrid(deg float64) int32 { return int32(math.Round(deg * 1e7)) }

// CoordFromGrid decodes a latitude's or longitude's grid code.
func CoordFromGrid(c int32) float64 { return float64(c) / 1e7 }

// ThetaToGrid returns an azimuth's grid code, folded into [0, 36000).
func ThetaToGrid(deg float64) uint16 { return uint16(math.Round(geo.NormalizeDeg(deg)*100)) % 36000 }

// ThetaFromGrid decodes an azimuth's grid code.
func ThetaFromGrid(c uint16) float64 { return float64(c) / 100 }

// AppendPose appends f's grid codes to b.
func AppendPose(b []byte, f FoV) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(CoordToGrid(f.P.Lat)))
	b = binary.LittleEndian.AppendUint32(b, uint32(CoordToGrid(f.P.Lng)))
	return binary.LittleEndian.AppendUint16(b, ThetaToGrid(f.Theta))
}

// PoseAt decodes the pose AppendPose wrote at the start of b.
func PoseAt(b []byte) FoV {
	lat := CoordFromGrid(int32(binary.LittleEndian.Uint32(b[0:])))
	lng := CoordFromGrid(int32(binary.LittleEndian.Uint32(b[4:])))
	return FoV{P: geo.Point{Lat: lat, Lng: lng}, Theta: ThetaFromGrid(binary.LittleEndian.Uint16(b[8:]))}
}

// OnGrid returns f as the grid holds it, Theta folded into [0, 360).
func (f FoV) OnGrid() FoV {
	var b [PoseBytes]byte
	return PoseAt(AppendPose(b[:0], f))
}

// AppendCamera appends c's grid codes to b. c must pass ValidOnGrid.
func AppendCamera(b []byte, c Camera) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(math.Round(c.HalfAngleDeg*100)))
	return binary.LittleEndian.AppendUint32(b, uint32(math.Round(c.RadiusMeters*100)))
}

// CameraAt decodes the camera AppendCamera wrote at the start of b.
func CameraAt(b []byte) Camera {
	return Camera{HalfAngleDeg: float64(binary.LittleEndian.Uint16(b[0:])) / 100, RadiusMeters: float64(binary.LittleEndian.Uint32(b[2:])) / 100}
}

// OnGrid returns c as the grid holds it; the zero camera stays zero.
func (c Camera) OnGrid() Camera {
	var b [CameraBytes]byte
	return CameraAt(AppendCamera(b[:0], c))
}

// ValidOnGrid reports whether c has a valid grid form: c is valid, its
// radius fits the code (42 949 672 m), and it does not round out of
// Validate's range, as a half-angle of 89.999° does.
func (c Camera) ValidOnGrid() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if g := c.OnGrid(); c.RadiusMeters > 42_949_672 || g.Validate() != nil {
		return fmt.Errorf("fov: camera %+v rounds to %+v on the grid", c, g)
	}
	return nil
}
