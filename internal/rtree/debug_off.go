//go:build !fovrdebug

package rtree

// debugChecks gates the debug assertions: a writer never mutates a node
// reachable from a published snapshot, and a node's slots are used as
// the kind its leaf flag says. Off in normal builds, they are
// constant-false branches the compiler removes; build with -tags
// fovrdebug to turn either fault into a panic.
const debugChecks = false
