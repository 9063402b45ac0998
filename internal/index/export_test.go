package index

// ShapeDigest is the digest of x's current snapshot (rtree's
// Snapshot.ShapeDigest), exported for the external shape tests.
func ShapeDigest(x *RTree) uint64 { return x.current().snap.ShapeDigest() }
