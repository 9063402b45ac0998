package server

import (
	"fmt"
	"sync"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// TestConcurrentReadsDuringResetState is the publication/replacement
// stress: concurrent queries against a server whose index is
// simultaneously ingesting uploads and having its whole state reset by
// a replication bootstrap (FinishBootstrap). Under -race this certifies
// the snapshot publication and index-swap memory ordering; functionally
// it checks that no query errors and the final state passes invariants.
// The subtest name is the one configuration the server has: the global
// R-tree with no read cache.
func TestConcurrentReadsDuringResetState(t *testing.T) {
	t.Run("rtree,cache=false", testConcurrentReadsDuringResetState)
}

func testConcurrentReadsDuringResetState(t *testing.T) {
	s, err := New(Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Registry: obs.NewRegistry(),
		Store:    store.NewMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	uploadN(t, s, "base", 200)
	base := s.Index().Entries()

	var wg, rwg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 16)
	q := query.Query{
		Center:       center,
		RadiusMeters: 2000,
		StartMillis:  0,
		EndMillis:    90_000 * 210,
	}

	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Query(q, 20); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() { // ingest writer
		defer wg.Done()
		for i := 0; i < 25; i++ {
			reps := make([]segment.Representative, 8)
			for j := range reps {
				start := int64((i*8 + j)) * 45_000
				reps[j] = rep(geo.Offset(center, float64((i+j)*37%360), 50), 90, start, start+5_000)
			}
			if _, err := s.Register(wire.Upload{Provider: "churn", Reps: reps}); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // state replacer
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := bootstrapState(s, base); err != nil {
				errs <- fmt.Errorf("bootstrap %d: %w", i, err)
				return
			}
		}
	}()

	wg.Wait() // both mutators finished
	close(done)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
