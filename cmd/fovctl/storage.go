// The storage subcommand: the storage block of /stats — how the durable
// store is split between the memtable (what was appended since the last
// checkpoint) and the sealed per-window segment files.
package main

import (
	"fmt"
	"time"

	"fovr/internal/client"
)

// runStorage prints the durable store's tiers, or that there is none.
func runStorage(c *client.Client) error {
	st, err := c.Stats()
	if err != nil {
		return err
	}
	s := st.Storage
	if s == nil {
		fmt.Println("storage: in-memory (no -data-dir)")
		return nil
	}
	fmt.Printf("storage: tiered, window %s\n", millisDuration(s.SegmentWindowMillis))
	fmt.Printf("  sealed:   %d segments, %d entries, %s on disk\n",
		s.Segments, s.SegmentEntries, topBytes(float64(s.SegmentBytes)))
	fmt.Printf("  memtable: %d entries\n", s.MemtableEntries)
	fmt.Printf("  tombstones: %d\n", s.Tombstones)
	fmt.Printf("  window seals: %d total\n", s.Compactions)
	return nil
}

// millisDuration renders a millisecond span the way flag inputs are
// written (1h, 30m, ...).
func millisDuration(ms int64) string {
	return (time.Duration(ms) * time.Millisecond).String()
}
