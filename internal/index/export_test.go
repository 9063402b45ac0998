package index

import "fovr/internal/rtree"

// ShapeDigest is the digest of x's current snapshot (rtree's
// Snapshot.ShapeDigest), exported for the external shape tests.
func ShapeDigest(x *RTree) uint64 { return x.current().snap.ShapeDigest() }

// NewRTreeM and BulkLoadRTreeM are NewRTree and BulkLoadRTree over
// nodes of capacity m, 0 selecting the default: the shape pins taken at
// M = 16 keep pinning the M = 16 tree, which shows the writer and the
// packer did not change when the default M did.
func NewRTreeM(m int) *RTree { return newRTree(rtree.Options{MaxEntries: m}, 0) }

func BulkLoadRTreeM(m, n int, produce func(add func(*Entry) error) error) (*RTree, error) {
	return bulkLoadRTree(rtree.Options{MaxEntries: m}, 0, n, produce)
}
