// The bootstrap: a follower fetches the leader's manifest, then each
// sealed segment it does not already hold, swaps them in over an empty
// memtable, and tails the leader's log from the manifest's BaseGen —
// the leader's own recovery, done over HTTP. A durable follower
// persists each installed segment as a staged file before the next
// fetch begins, so one killed mid-bootstrap — or one
// re-bootstrapping after it lagged past the leader's log — re-fetches
// only what it lacks: local durable presence IS the resume cursor;
// there is no separate progress file to lose.
//
// A leader checkpoint during the bootstrap supersedes segments: a fetch
// of one answers 404 and the bootstrap fails, to be retried from a
// fresh manifest, or it deletes the WAL below the new BaseGen, and the
// first tail read answers "bootstrap me". Either way the retry fetches
// only the windows the checkpoint rewrote.
package replica

import (
	"errors"
	"fmt"
)

// bootstrap runs one bootstrap to completion: manifest → missing
// segments → swap. A nil return means the cursor is set to (BaseGen, 0)
// and streaming can resume.
func (f *Follower) bootstrap() error {
	mb, err := f.opts.Fetch.FetchManifest(f.ctx)
	if err != nil {
		return err
	}
	if mb.Manifest.BaseGen == 0 {
		return errors.New("replica: leader manifest names no WAL base generation")
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
	if err := f.opts.Apply.FinishBootstrap(mb.Manifest); err != nil {
		return fmt.Errorf("finish bootstrap: %w", err)
	}
	cur := Cursor{Gen: mb.Manifest.BaseGen}
	f.bootstraps.Inc()
	f.update(func(st *Status) {
		st.State = "streaming"
		st.Bootstraps++
		st.Cursor = cur
		st.LeaderStoreID = mb.StoreID
		st.LastError = ""
		setLag(st, mb.Lead)
	})
	f.log.Info("replica bootstrapped",
		"segments", fetched, "skipped", skipped, "cursor", cur, "leaderStore", mb.StoreID)
	return nil
}
