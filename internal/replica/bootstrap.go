// The bootstrap: a follower fetches the leader's manifest, then each
// sealed segment it does not already hold, then the memtable with its
// WAL cursor. A durable follower persists each installed segment (and
// records it in its own manifest) before the next fetch begins, so one
// killed mid-bootstrap — or one re-bootstrapping after it lagged past
// the leader's log — re-fetches only what it lacks: local durable
// presence IS the resume cursor; there is no separate progress file to
// lose.
package replica

import "fmt"

// bootstrapAttempts bounds the manifest-moved retry loop. Each retry
// refetches only the delta (installed segments are skipped), so even a
// leader sealing continuously converges unless it seals faster than
// the follower can fetch one window.
const bootstrapAttempts = 8

// bootstrap runs one bootstrap to completion: manifest → missing
// segments → memtable → atomic install. A nil return means the cursor is
// set and streaming can resume.
func (f *Follower) bootstrap() error {
	for attempt := 1; attempt <= bootstrapAttempts; attempt++ {
		if err := f.ctx.Err(); err != nil {
			return err
		}
		mb, err := f.opts.Fetch.FetchManifest(f.ctx)
		if err != nil {
			return err
		}
		fetched, skipped := 0, 0
		for _, seg := range mb.Manifest.Segments {
			if err := f.ctx.Err(); err != nil {
				return err
			}
			if f.opts.Apply.HasSegment(seg.Window, seg.Seq, seg.CRC) {
				skipped++
				f.segSkipped.Inc()
				continue
			}
			raw, err := f.opts.Fetch.FetchSegment(f.ctx, seg)
			if err != nil {
				return fmt.Errorf("segment %d/%d: %w", seg.Window, seg.Seq, err)
			}
			if err := f.opts.Apply.InstallSegment(seg, raw); err != nil {
				return fmt.Errorf("install segment %d/%d: %w", seg.Window, seg.Seq, err)
			}
			fetched++
			f.segFetched.Inc()
			f.segFetchedBytes.Add(int64(len(raw)))
		}
		memB, err := f.opts.Fetch.FetchMem(f.ctx)
		if err != nil {
			return err
		}
		if memB.ManifestHash != mb.Manifest.Hash {
			// The sealed set moved between the manifest and memtable legs.
			// Everything installed so far is kept; the retry fetches only
			// the delta.
			f.log.Info("replica manifest moved during bootstrap; retrying",
				"attempt", attempt, "fetched", fetched, "skipped", skipped)
			continue
		}
		if err := f.opts.Apply.FinishBootstrap(mb.Manifest, memB.Entries); err != nil {
			return fmt.Errorf("finish bootstrap: %w", err)
		}
		f.bootstraps.Inc()
		f.update(func(st *Status) {
			st.State = "streaming"
			st.Bootstraps++
			st.Cursor = memB.Next
			st.LeaderStoreID = memB.StoreID
			st.LastError = ""
			setLag(st, memB)
		})
		f.log.Info("replica bootstrapped",
			"segments", fetched, "skipped", skipped,
			"memEntries", len(memB.Entries), "cursor", memB.Next, "leaderStore", memB.StoreID)
		return nil
	}
	return fmt.Errorf("replica: bootstrap: manifest kept moving after %d attempts", bootstrapAttempts)
}
