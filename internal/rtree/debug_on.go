//go:build fovrdebug

package rtree

// debugChecks is on under the fovrdebug build tag: a write to a node
// owned by a published snapshot, or a node's slots used as the other
// kind, panics at its site instead of corrupting concurrent readers.
const debugChecks = true
